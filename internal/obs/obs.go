// Package obs is the simulator's structured observability layer: typed
// trace events with pluggable sinks (Chrome trace JSON for Perfetto, JSONL,
// or in-process collectors), critical-path and per-fragment analysis of a
// collected trace, windowed telemetry series, per-fragment heat, and
// log-bucketed latency histograms.
//
// The package is deliberately free of simulation dependencies — times are
// plain int64 nanoseconds of simulated time — so internal/sim can own a
// Sink without an import cycle. Tracing is zero-cost when disabled: the
// engine emits only when a sink is attached, and a nil *FragHeat or
// *Sampler accepts every call as a no-op, so instrumented code needs no
// conditional at the call site.
//
// Within one simulation engine all emission is single-threaded (the kernel
// runs one process at a time). The sinks shipped here are additionally
// mutex-guarded so several engines — e.g. harness workers — can share one
// sink safely.
package obs

// NoNode marks an event that belongs to no operator node (the host's
// coordination work, engine-level events).
const NoNode = -1

// Kind classifies a trace event.
type Kind uint8

// Trace event kinds. Span events carry a duration and describe a completed
// interval; Begin/End pairs bracket intervals whose duration the emitter
// does not know up front; Instant events are points.
const (
	KindInstant Kind = iota
	KindBegin
	KindEnd
	KindSpan
)

// String returns the kind's wire name (used by the JSONL exporter).
func (k Kind) String() string {
	switch k {
	case KindInstant:
		return "instant"
	case KindBegin:
		return "begin"
	case KindEnd:
		return "end"
	case KindSpan:
		return "span"
	default:
		return "unknown"
	}
}

// MarshalJSON encodes the kind as its string name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// TraceEvent is one structured simulation event. The emitting layer fills
// the typed fields; string formatting (for terminals, logs) happens at the
// edge, in whatever sink or tool consumes the event.
type TraceEvent struct {
	// T is the event (or span start) time in simulated nanoseconds.
	T int64 `json:"t_ns"`
	// Dur is the span duration in simulated nanoseconds (KindSpan only).
	Dur int64 `json:"dur_ns,omitempty"`
	// Node is the operator node the event happened on, or NoNode.
	Node int `json:"node"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Category groups events into tracks: "cpu", "disk", "net", "buffer",
	// "query", "op".
	Category string `json:"cat"`
	// Name identifies the event within its category (e.g. the process
	// served, "read p123", "q17 operators").
	Name string `json:"name"`
	// QueryID ties the event to a query, or 0.
	QueryID int64 `json:"query,omitempty"`
	// Detail carries optional free-form context.
	Detail string `json:"detail,omitempty"`
}

// Sink receives trace events. Implementations shipped by this package are
// safe for concurrent use by multiple engines.
type Sink interface {
	Emit(ev TraceEvent)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(ev TraceEvent)

// Emit calls the function.
func (f SinkFunc) Emit(ev TraceEvent) { f(ev) }

// MultiSink fans every event out to each sink in order.
type MultiSink []Sink

// Emit forwards the event to every sink.
func (m MultiSink) Emit(ev TraceEvent) {
	for _, s := range m {
		s.Emit(ev)
	}
}
