package sim

import "fmt"

// Mailbox is an unbounded FIFO message queue between handlers. Any number
// of producers (handlers or callbacks) may Put. Messages are delivered in
// Put order, and each message wakes at most one waiting handler: the
// oldest of those that found the mailbox empty in Wait. One handler may
// instead be the mailbox's only consumer (Consume), as a relay that only
// passes messages on is, or wait on it with a timeout (TakeTimeout), as
// the host's query collector does; that is the one-waiter case of the
// same ring.
//
// Messages and waiting handlers live in power-of-two ring buffers, so the
// steady state allocates nothing and a take is O(1) instead of the O(n)
// slice shift a naive queue pays. When a handler waits, Put schedules it
// on the engine's current-instant ready ring — no event-heap round-trip —
// and, because a mailbox only holds waiters while it is empty, the message
// at the head of the ring is the one the woken handler claims.
type Mailbox[T any] struct {
	eng  *Engine
	name Label

	buf   []T // message ring (power-of-two capacity)
	head  int
	count int

	wbuf   []Handler // waiting-handler ring (power-of-two capacity), first in one
	whead  int
	wcount int
	one    [1]Handler // the ring of a mailbox with one waiter at a time

	// consumer, when set, is the mailbox's only waiter: Take (and a
	// TakeTimeout wait) puts it back in the ring when the mailbox runs
	// empty, so it waits for the next Put.
	consumer Handler

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
	m := &Mailbox[T]{eng: e, name: name}
	m.wbuf = m.one[:]
	return m
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

// Consume makes h the mailbox's only consumer. The consumer waits in
// the ring: a Put schedules h at the current instant and takes it out.
// h then drains the backlog with Take, which puts the consumer back when
// the mailbox runs empty, so further Puts while h is scheduled or busy
// only queue. A mailbox with a consumer has no other waiters. A backlog
// queued before Consume schedules h at once.
func (m *Mailbox[T]) Consume(h Handler) {
	m.consumer = h
	m.addWaiter(h)
	if m.count > 0 {
		m.wakeOne()
	}
}

// Take removes and returns the oldest message for the consumer handler.
// On an empty mailbox it returns ok=false and puts the consumer back in
// the ring. Without a consumer, Take only polls the mailbox.
func (m *Mailbox[T]) Take() (T, bool) {
	if m.count > 0 {
		return m.pop(), true
	}
	m.rearm()
	var zero T
	return zero, false
}

// rearm puts the consumer back in the ring unless it waits there already.
func (m *Mailbox[T]) rearm() {
	if m.consumer != nil && m.wcount == 0 {
		m.addWaiter(m.consumer)
	}
}

// Wait removes and returns the oldest message with ok true. On an empty
// mailbox it queues h behind every handler already waiting and returns ok
// false: the Put that reaches h schedules it at that instant, and h calls
// Wait again, finding the message unless another taker got it first, in
// which case it queues again at the tail. Any number of handlers may wait
// so, in FIFO order, on a mailbox without a consumer.
func (m *Mailbox[T]) Wait(h Handler) (T, bool) {
	if m.count > 0 {
		return m.pop(), true
	}
	m.addWaiter(h)
	var zero T
	return zero, false
}

// Put enqueues a message and wakes one waiting handler, if any. It never
// blocks and may be called from any handler or callback. While
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

// wakeOne schedules the oldest waiting handler, if any, and takes it out
// of the ring.
func (m *Mailbox[T]) wakeOne() {
	if m.wcount == 0 {
		return
	}
	h := m.wbuf[m.whead]
	m.wbuf[m.whead] = nil
	m.whead = (m.whead + 1) & (len(m.wbuf) - 1)
	m.wcount--
	m.eng.ScheduleHandler(0, h)
}

// addWaiter registers h at the tail of the waiting-handler ring.
func (m *Mailbox[T]) addWaiter(h Handler) {
	if m.wcount == len(m.wbuf) {
		grown := make([]Handler, 2*len(m.wbuf))
		for i := 0; i < m.wcount; i++ {
			grown[i] = m.wbuf[(m.whead+i)&(len(m.wbuf)-1)]
		}
		m.wbuf = grown
		m.whead = 0
	}
	m.wbuf[(m.whead+m.wcount)&(len(m.wbuf)-1)] = h
	m.wcount++
}

// Withdraw takes h out of the waiting-handler ring, keeping the others
// in order, and reports whether h was waiting. A timer that ends a wait
// must withdraw its handler before scheduling it: that is what guarantees
// a Put and a timeout never both wake the same wait.
func (m *Mailbox[T]) Withdraw(h Handler) bool {
	mask := len(m.wbuf) - 1
	for i := 0; i < m.wcount; i++ {
		if m.wbuf[(m.whead+i)&mask] != h {
			continue
		}
		for ; i < m.wcount-1; i++ {
			m.wbuf[(m.whead+i)&mask] = m.wbuf[(m.whead+i+1)&mask]
		}
		m.wbuf[(m.whead+i)&mask] = nil
		m.wcount--
		return true
	}
	return false
}

// TakeTimeout waits for a message for at most d, for a handler h that is
// the mailbox's only consumer while it waits. It returns the oldest
// message with ok and done true when one is queued. On an empty mailbox
// it queues h, which runs at the first Put or, when d > 0 and no Put
// comes first, d from now; done is false. Called again from that event,
// it returns the message (a message that lands in the instant the wait
// times out wins), or ok false and done true on a timeout. The timer is
// scheduled when the wait begins, and after a Put has won it still fires,
// as a no-op event. d = 0 waits with no timer.
func (m *Mailbox[T]) TakeTimeout(h Handler, d Duration) (v T, ok, done bool) {
	switch {
	case m.count > 0:
		v, ok = m.pop(), true
	case !m.expired:
		// A handler that a Put woke for a message drop mode then discarded
		// waits on under the same timer.
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
		m.consumer = h
		m.rearm()
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
// progress and returns the record for reuse. A handler still waiting in
// the ring is withdrawn and scheduled; one a Put already scheduled takes
// the message when it runs if one is still queued, and times out if drop
// mode discarded it. It implements Handler and is not meant to be called
// directly.
func (t *mailboxTimer[T]) HandleEvent() {
	m := t.m
	if m.consumer != nil && m.waits == t.wait {
		m.expired = true
		if m.Withdraw(m.consumer) {
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
// too; waiting handlers stay queued (the receiver is down, not gone).
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
