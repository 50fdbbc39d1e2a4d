package sim

import "fmt"

// Mailbox is an unbounded FIFO message queue between simulation processes.
// Any number of producers (processes or callbacks) may Put; any number of
// consumer processes may Get. Messages are delivered in Put order and each
// message wakes at most one waiting consumer. Instead of processes, one
// Handler may consume the mailbox (Consume), as a relay that only passes
// messages on does without a coroutine switch per message, or wait on it
// with a timeout (TakeTimeout), as the host's query collector does.
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
	// waits for the next Put, as a consumer process parked in Get would.
	consumer Handler
	armed    bool

	// TakeTimeout waits: the consumer is set while one is in progress,
	// waits numbers them, so a timer knows whether the wait that armed it
	// is still the live one, and expired records that the live one's timer
	// fired. timers holds fired timer records for reuse.
	waits   uint64
	expired bool
	timers  *mailboxTimer[T]

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
// looping on Get. The consumer waits armed: a Put schedules h at the
// current instant, exactly where it would wake the parked process,
// and disarms it. h then drains the backlog with Take, which re-arms the
// consumer when the mailbox runs empty, so further Puts while h is
// scheduled or busy only queue, as they would for the running process.
// A mailbox with a consumer has no consumer processes. A backlog queued
// before Consume schedules h at once.
func (m *Mailbox[T]) Consume(h Handler) {
	m.consumer, m.armed = h, true
	if m.count > 0 {
		m.wakeOne()
	}
}

// Take removes and returns the oldest message for the consumer handler.
// On an empty mailbox it returns ok=false and re-arms the consumer. Without
// a consumer, Take only polls the mailbox.
func (m *Mailbox[T]) Take() (T, bool) {
	if m.count > 0 {
		return m.pop(), true
	}
	m.armed = m.consumer != nil
	var zero T
	return zero, false
}

// Put enqueues a message and wakes one waiting consumer, if any. It never
// blocks and may be called from event callbacks as well as processes. While
// the mailbox is in drop mode the message is silently discarded.
func (m *Mailbox[T]) Put(v T) {
	if m.dropping {
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
// until one is available.
func (m *Mailbox[T]) Get(p *Proc) T {
	for m.count == 0 {
		m.addWaiter(p)
		p.Park()
	}
	return m.pop()
}

// GetTimeout removes and returns the oldest message, blocking the calling
// process until one is available or d has elapsed. It returns ok=false on
// timeout. When a message and the deadline land on the same instant, the
// message wins.
func (m *Mailbox[T]) GetTimeout(p *Proc, d Duration) (T, bool) {
	if m.count > 0 {
		return m.pop(), true
	}
	timedOut := false
	armed := true
	m.eng.Schedule(d, func() {
		// Expire only the call that scheduled the timer: one that returned
		// early on a message disarms it, or the stale timer would pull p out
		// of a later GetTimeout's waiter slot and eat that call's wake-up.
		// Wake p only if it is still parked in this mailbox's waiter ring.
		// Removing it before waking means a concurrent Put can no longer pop
		// (and wake) the same slot, so exactly one waker wins. A p that a
		// Put already woke is due to resume: it takes the message if one is
		// still queued, and times out if another consumer or drop mode took
		// it.
		if armed {
			timedOut = true
			if m.removeWaiter(p) {
				m.eng.Wake(p)
			}
		}
	})
	for m.count == 0 && !timedOut {
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

// TakeTimeout is GetTimeout in step form, for a handler h that is the
// mailbox's only consumer while it waits. It returns the oldest message
// with ok and done true when one is queued. On an empty mailbox it arms
// h, which runs at the first Put, in the event where Put would wake a
// process parked in GetTimeout, or, when d > 0 and no Put comes first,
// d from now, in the event where GetTimeout's timer would wake it; done
// is false. Called again from that event, it returns the message (a
// message that lands in the instant the wait times out wins), or ok false
// and done true on a timeout. The timer is scheduled with the draw
// GetTimeout's makes, and after a Put has won it still fires, as a no-op
// event. d = 0 waits with no timer, as Get does.
func (m *Mailbox[T]) TakeTimeout(h Handler, d Duration) (v T, ok, done bool) {
	switch {
	case m.count > 0:
		v, ok = m.pop(), true
	case !m.expired:
		// A handler that a Put woke for a message drop mode then discarded
		// waits on under the same timer, as GetTimeout parks again.
		if m.consumer == nil {
			m.waits++
			if d > 0 {
				t := m.timers
				if t != nil {
					m.timers = t.next
				} else {
					t = &mailboxTimer[T]{m: m}
				}
				t.wait = m.waits
				m.eng.ScheduleHandler(d, t)
			}
		}
		m.consumer, m.armed = h, true
		return v, false, false
	}
	m.consumer, m.expired = nil, false
	return v, ok, true
}

// mailboxTimer is the timer of one TakeTimeout wait.
type mailboxTimer[T any] struct {
	m    *Mailbox[T]
	wait uint64 // the wait that armed it
	next *mailboxTimer[T]
}

// HandleEvent expires the wait that armed the timer if it is still in
// progress and returns the record for reuse. A handler still armed in the
// wait is scheduled, as GetTimeout's timer wakes its process; one a Put
// already scheduled takes the message when it runs if one is still queued,
// and times out if drop mode discarded it. It implements Handler and is
// not meant to be called directly.
func (t *mailboxTimer[T]) HandleEvent() {
	m := t.m
	if m.consumer != nil && m.waits == t.wait {
		m.expired = true
		if m.armed {
			m.armed = false
			m.eng.ScheduleHandler(0, m.consumer)
		}
	}
	t.next, m.timers = m.timers, t
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

// SetDrop switches the mailbox into (or out of) drop mode: while dropping,
// Put discards messages instead of queueing them — the shape of a crashed
// receiver whose interface is down. Entering drop mode discards the backlog
// too; blocked consumers stay parked (the receiver is down, not gone).
func (m *Mailbox[T]) SetDrop(drop bool) {
	m.dropping = drop
	if !drop {
		return
	}
	var zero T
	for i := 0; i < m.count; i++ {
		m.buf[(m.head+i)&(len(m.buf)-1)] = zero
	}
	m.head, m.count = 0, 0
}
