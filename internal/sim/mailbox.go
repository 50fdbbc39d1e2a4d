package sim

import "fmt"

// Mailbox is an unbounded FIFO message queue between simulation processes.
// Any number of producers (processes or callbacks) may Put; any number of
// consumer processes may Get. Messages are delivered in Put order and each
// message wakes at most one waiting consumer. Instead of processes, one
// Handler may consume the mailbox (Consume), as a relay that only passes
// messages on does without a coroutine switch per message.
//
// Messages and waiting consumers live in power-of-two ring buffers, so the
// steady state allocates nothing and Get is O(1) instead of the O(n) slice
// shift a naive queue pays. When a consumer is parked, Put hands the message
// straight to it: the receiver is scheduled on the engine's current-instant
// ready ring — no event-heap round-trip — and, because a mailbox only holds
// waiters while it is empty, the message at the head of the ring is the one
// the woken receiver claims.
type Mailbox[T any] struct {
	eng  *Engine
	name Label

	buf   []T // message ring (power-of-two capacity)
	head  int
	count int

	wbuf   []*Proc // waiting-consumer ring (power-of-two capacity)
	whead  int
	wcount int

	// consumer, when set, is the mailbox's only consumer; armed means it
	// waits for the next Put, as a consumer process parked in Recv would.
	consumer Handler
	armed    bool

	closed   bool
	dropping bool
}

// NewMailbox creates a mailbox attached to the engine.
func NewMailbox[T any](e *Engine, name string) *Mailbox[T] {
	return NewMailboxLabel[T](e, Label{format: name})
}

// NewMailboxLabel creates a mailbox whose name is formatted only when read,
// so a per-query mailbox costs no formatting on the hot path.
func NewMailboxLabel[T any](e *Engine, name Label) *Mailbox[T] {
	return &Mailbox[T]{eng: e, name: name}
}

// Name reports the mailbox name.
func (m *Mailbox[T]) Name() string { return m.name.String() }

// Label is a name formatted only when it is read: a format and up to two
// integer arguments, giving what fmt.Sprintf would.
type Label struct {
	format string
	args   [2]int64
	n      int
}

// Labelf returns the label of format with up to two integer arguments.
func Labelf(format string, args ...int64) Label {
	l := Label{format: format, n: min(len(args), 2)}
	copy(l.args[:], args)
	return l
}

// String formats the label.
func (l Label) String() string {
	switch l.n {
	case 0:
		return l.format
	case 1:
		return fmt.Sprintf(l.format, l.args[0])
	default:
		return fmt.Sprintf(l.format, l.args[0], l.args[1])
	}
}

// Consume makes h the mailbox's only consumer, in place of a process
// looping on Recv. The consumer waits armed: a Put (or Close) schedules h
// at the current instant, exactly where it would wake the parked process,
// and disarms it. h then drains the backlog with Take, which re-arms the
// consumer when the mailbox runs empty, so further Puts while h is
// scheduled or busy only queue, as they would for the running process.
// A mailbox with a consumer has no consumer processes. A backlog queued
// before Consume schedules h at once.
func (m *Mailbox[T]) Consume(h Handler) {
	m.consumer, m.armed = h, !m.closed
	if m.count > 0 {
		m.wakeOne()
	}
}

// Take removes and returns the oldest message for the consumer handler.
// On an empty mailbox it returns ok=false and re-arms the consumer, unless
// the mailbox is closed: a closed mailbox's consumer is done. Without a
// consumer, Take is TryGet.
func (m *Mailbox[T]) Take() (T, bool) {
	if m.count > 0 {
		return m.pop(), true
	}
	m.armed = m.consumer != nil && !m.closed
	var zero T
	return zero, false
}

// Put enqueues a message and wakes one waiting consumer, if any. It never
// blocks and may be called from event callbacks as well as processes. While
// the mailbox is closed or in drop mode the message is silently discarded.
func (m *Mailbox[T]) Put(v T) {
	if m.closed || m.dropping {
		return
	}
	if m.count == len(m.buf) {
		grown := make([]T, max(8, 2*len(m.buf)))
		for i := 0; i < m.count; i++ {
			grown[i] = m.buf[(m.head+i)&(len(m.buf)-1)]
		}
		m.buf = grown
		m.head = 0
	}
	m.buf[(m.head+m.count)&(len(m.buf)-1)] = v
	m.count++
	m.wakeOne()
}

// wakeOne schedules the armed consumer handler, or else pops waiter-ring
// slots until it finds a live consumer to wake. Slots can hold nil
// (vacated by a GetTimeout timer) or a killed/finished process; waking
// those would either be lost or corrupt the single-control invariant, so
// they are skipped.
func (m *Mailbox[T]) wakeOne() {
	if m.armed {
		m.armed = false
		m.eng.ScheduleHandler(0, m.consumer)
		return
	}
	for m.wcount > 0 {
		p := m.wbuf[m.whead]
		m.wbuf[m.whead] = nil
		m.whead = (m.whead + 1) & (len(m.wbuf) - 1)
		m.wcount--
		if p == nil || p.finished || p.killed {
			continue
		}
		m.eng.Wake(p)
		return
	}
}

// wakeAll releases the consumer and every live waiter (used by Close).
func (m *Mailbox[T]) wakeAll() {
	for m.armed || m.wcount > 0 {
		m.wakeOne()
	}
}

// addWaiter registers p at the tail of the waiting-consumer ring.
func (m *Mailbox[T]) addWaiter(p *Proc) {
	if m.wcount == len(m.wbuf) {
		grown := make([]*Proc, max(4, 2*len(m.wbuf)))
		for i := 0; i < m.wcount; i++ {
			grown[i] = m.wbuf[(m.whead+i)&(len(m.wbuf)-1)]
		}
		m.wbuf = grown
		m.whead = 0
	}
	m.wbuf[(m.whead+m.wcount)&(len(m.wbuf)-1)] = p
	m.wcount++
}

// removeWaiter vacates p's slot in the waiting-consumer ring without
// compacting it (wakeOne skips nil slots) and reports whether p was found.
// A waker must remove its target from the ring before waking it: that is
// what guarantees a Put and a timeout can never both wake the same parked
// process.
func (m *Mailbox[T]) removeWaiter(p *Proc) bool {
	for i := 0; i < m.wcount; i++ {
		idx := (m.whead + i) & (len(m.wbuf) - 1)
		if m.wbuf[idx] == p {
			m.wbuf[idx] = nil
			return true
		}
	}
	return false
}

// Get removes and returns the oldest message, blocking the calling process
// until one is available. Get on a closed, empty mailbox panics: callers
// that must survive closure use Recv.
func (m *Mailbox[T]) Get(p *Proc) T {
	v, ok := m.Recv(p)
	if !ok {
		panic("sim: Get on closed mailbox " + m.Name())
	}
	return v
}

// Recv removes and returns the oldest message, blocking the calling process
// until one is available. It returns ok=false when the mailbox is closed
// and empty.
func (m *Mailbox[T]) Recv(p *Proc) (T, bool) {
	for m.count == 0 {
		if m.closed {
			var zero T
			return zero, false
		}
		m.addWaiter(p)
		p.Park()
	}
	return m.pop(), true
}

// GetTimeout removes and returns the oldest message, blocking the calling
// process until one is available or d has elapsed. It returns ok=false on
// timeout or when the mailbox is closed and empty. When a message and the
// deadline land on the same instant, the message wins.
func (m *Mailbox[T]) GetTimeout(p *Proc, d Duration) (T, bool) {
	if m.count > 0 {
		return m.pop(), true
	}
	if m.closed {
		var zero T
		return zero, false
	}
	timedOut := false
	armed := true
	m.eng.Schedule(d, func() {
		// Fire only while this call is still blocked (a call that returned
		// early on a message disarms the timer — otherwise the stale timer
		// would pull p out of a later GetTimeout's waiter slot and eat that
		// call's wake-up) and only if p is still parked in this mailbox's
		// waiter ring. Removing it before waking means a concurrent Put can
		// no longer pop (and wake) the same slot — exactly one waker wins.
		if armed && m.removeWaiter(p) {
			timedOut = true
			m.eng.Wake(p)
		}
	})
	for m.count == 0 && !timedOut {
		if m.closed {
			armed = false
			var zero T
			return zero, false
		}
		m.addWaiter(p)
		p.Park()
	}
	armed = false
	if m.count > 0 {
		return m.pop(), true
	}
	var zero T
	return zero, false
}

// TryGet removes and returns the oldest message without blocking. The second
// result reports whether a message was available.
func (m *Mailbox[T]) TryGet() (T, bool) {
	if m.count == 0 {
		var zero T
		return zero, false
	}
	return m.pop(), true
}

// pop removes the ring head. Must only be called when count > 0.
func (m *Mailbox[T]) pop() T {
	var zero T
	v := m.buf[m.head]
	m.buf[m.head] = zero // drop the reference for the collector
	m.head = (m.head + 1) & (len(m.buf) - 1)
	m.count--
	return v
}

// Len reports the number of queued messages.
func (m *Mailbox[T]) Len() int { return m.count }

// Close marks the mailbox closed: the backlog is discarded, future Puts are
// dropped, and every blocked consumer is released (Recv and GetTimeout
// return ok=false; Get panics). Closing twice is a no-op.
func (m *Mailbox[T]) Close() {
	if m.closed {
		return
	}
	m.closed = true
	m.flush()
	m.wakeAll()
}

// Closed reports whether Close has been called.
func (m *Mailbox[T]) Closed() bool { return m.closed }

// SetDrop switches the mailbox into (or out of) drop mode: while dropping,
// Put discards messages instead of queueing them — the shape of a crashed
// receiver whose interface is down. Entering drop mode discards the backlog
// too; blocked consumers stay parked (the receiver is "down", not closed).
func (m *Mailbox[T]) SetDrop(drop bool) {
	m.dropping = drop
	if drop {
		m.flush()
	}
}

// flush discards the queued backlog.
func (m *Mailbox[T]) flush() {
	var zero T
	for i := 0; i < m.count; i++ {
		m.buf[(m.head+i)&(len(m.buf)-1)] = zero
	}
	m.head, m.count = 0, 0
}

// Trigger is a one-shot completion event: processes Wait on it, and Fire
// releases all current and future waiters. It coordinates, e.g., a query
// scheduler waiting for every participating operator to report done.
type Trigger struct {
	eng     *Engine
	fired   bool
	waiters []*Proc
}

// NewTrigger creates an unfired trigger.
func NewTrigger(e *Engine) *Trigger { return &Trigger{eng: e} }

// Wait blocks the process until the trigger fires. If it has already fired,
// Wait returns immediately.
func (t *Trigger) Wait(p *Proc) {
	for !t.fired {
		t.waiters = append(t.waiters, p)
		p.Park()
	}
}

// Fire releases all waiters. Firing twice is a no-op.
func (t *Trigger) Fire() {
	if t.fired {
		return
	}
	t.fired = true
	for _, p := range t.waiters {
		t.eng.Wake(p)
	}
	t.waiters = nil
}

// Fired reports whether the trigger has fired.
func (t *Trigger) Fired() bool { return t.fired }

// Gate counts down from n and fires an inner trigger when it reaches zero.
// It models barrier-style coordination (e.g. "wait for all participants").
type Gate struct {
	remaining int
	trigger   *Trigger
}

// NewGate creates a gate that opens after n calls to Done. A gate with n<=0
// is already open.
func NewGate(e *Engine, n int) *Gate {
	g := &Gate{remaining: n, trigger: NewTrigger(e)}
	if n <= 0 {
		g.trigger.Fire()
	}
	return g
}

// Done decrements the counter, opening the gate at zero. Calling Done more
// times than the initial count panics: it indicates a protocol bug.
func (g *Gate) Done() {
	if g.remaining <= 0 {
		panic("sim: Gate.Done called after gate already open")
	}
	g.remaining--
	if g.remaining == 0 {
		g.trigger.Fire()
	}
}

// Wait blocks until the gate opens.
func (g *Gate) Wait(p *Proc) { g.trigger.Wait(p) }

// Remaining reports how many Done calls are still outstanding.
func (g *Gate) Remaining() int { return g.remaining }
