package serve

// ShedReason is the typed rejection outcome of the admission controller.
// Every arriving query is either admitted or shed with exactly one reason;
// nothing is silently dropped, so offered load always reconciles:
// arrivals = admitted + sum(sheds by reason).
type ShedReason int

const (
	// ShedQueueFull: the bounded wait queue was at capacity at arrival
	// time. The controller rejects immediately rather than letting the
	// queue — and every queued query's latency — grow without bound.
	ShedQueueFull ShedReason = iota
	// ShedAged: the query was admitted to the queue but waited longer than
	// MaxQueueWait before a service slot opened. Dispatching it anyway
	// would burn a slot on work whose deadline has already passed, so the
	// dispatcher sheds it at dequeue time instead.
	ShedAged
	// ShedShutdown: the query was still queued when the run ended (drain
	// at shutdown).
	ShedShutdown

	numShedReasons = int(ShedShutdown) + 1
)
