package sim_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

func TestMailboxFIFO(t *testing.T) {
	e := sim.New()
	mb := sim.NewMailbox[int](e, "mb")
	var got []int
	simtest.Spawn(e, "producer", func(p *simtest.Proc) {
		for i := 0; i < 5; i++ {
			mb.Put(i)
			p.Hold(sim.Millisecond)
		}
	})
	simtest.Spawn(e, "consumer", func(p *simtest.Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, simtest.Get(p, mb))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %v, want 5 messages", got)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("got %v", got)
		}
	}
}

func TestMailboxBlocksUntilMessage(t *testing.T) {
	e := sim.New()
	mb := sim.NewMailbox[string](e, "mb")
	var when sim.Time
	simtest.Spawn(e, "consumer", func(p *simtest.Proc) {
		simtest.Get(p, mb)
		when = p.Now()
	})
	simtest.Spawn(e, "producer", func(p *simtest.Proc) {
		p.Hold(9 * sim.Millisecond)
		mb.Put("hi")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if when != 9*sim.Time(sim.Millisecond) {
		t.Fatalf("consumer resumed at %v", when)
	}
}

func TestMailboxMultipleConsumersEachMessageDeliveredOnce(t *testing.T) {
	e := sim.New()
	mb := sim.NewMailbox[int](e, "mb")
	delivered := map[int]int{}
	for c := 0; c < 3; c++ {
		simtest.Spawn(e, "consumer", func(p *simtest.Proc) {
			v := simtest.Get(p, mb)
			delivered[v]++
		})
	}
	simtest.Spawn(e, "producer", func(p *simtest.Proc) {
		p.Hold(sim.Millisecond)
		for i := 0; i < 3; i++ {
			mb.Put(i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(delivered) != 3 {
		t.Fatalf("delivered = %v", delivered)
	}
	for v, n := range delivered {
		if n != 1 {
			t.Fatalf("message %d delivered %d times", v, n)
		}
	}
}

// A GetTimeout that returns early on a message must disarm its deadline
// timer: the stale timer used to pull the proc out of a *later*
// GetTimeout's waiter slot at the exact instant that call's own timer was
// due, so neither fired and the proc parked forever.
func TestGetTimeoutStaleTimerDoesNotStealLaterWait(t *testing.T) {
	e := sim.New()
	mb := sim.NewMailbox[int](e, "stale")
	var got []int
	var timeoutAt sim.Time
	simtest.Spawn(e, "waiter", func(p *simtest.Proc) {
		// First wait: 10ms deadline, message arrives at 2ms.
		if v, ok := simtest.GetTimeout(p, mb, 10*sim.Millisecond); !ok || v != 1 {
			t.Errorf("first GetTimeout = %d, %v", v, ok)
		} else {
			got = append(got, v)
		}
		// Second wait: its own deadline lands at 10ms — the same instant
		// the first call's stale timer fires. It must still time out.
		if _, ok := simtest.GetTimeout(p, mb, 8*sim.Millisecond); ok {
			t.Error("second GetTimeout delivered a message from nowhere")
		}
		timeoutAt = p.Now()
	})
	e.Schedule(2*sim.Millisecond, func() { mb.Put(1) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("messages received = %v, want [1]", got)
	}
	if timeoutAt != 10*sim.Time(sim.Millisecond) {
		t.Fatalf("second wait resumed at %v, want the 10ms deadline", timeoutAt)
	}
}

// putThenDrop puts a message at 5ms and enters drop mode in the same
// event, which is scheduled before any wait starts, so it runs ahead of a
// 5ms timeout timer: the Put wakes the waiter, drop mode discards the
// message before the waiter resumes, and the timer fires in between. At
// 9ms drop mode ends and a second message arrives.
func putThenDrop(e *sim.Engine, mb *sim.Mailbox[int]) {
	e.Schedule(5*sim.Millisecond, func() {
		mb.Put(1)
		mb.SetDrop(true)
	})
	e.Schedule(9*sim.Millisecond, func() {
		mb.SetDrop(false)
		mb.Put(2)
	})
}

// A GetTimeout woken by a Put whose message is gone by the time it resumes
// must still time out at its deadline: its timer fired while it was
// outside the waiter ring, and used to do nothing, so the call parked
// again with no timer and took the next Put's message.
func TestGetTimeoutWokenForDroppedMessageTimesOut(t *testing.T) {
	e := sim.New()
	mb := sim.NewMailbox[int](e, "mb")
	putThenDrop(e, mb)
	var got int
	var ok bool
	var when sim.Time
	simtest.Spawn(e, "reader", func(p *simtest.Proc) {
		got, ok = simtest.GetTimeout(p, mb, 5*sim.Millisecond)
		when = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ok || when != 5*sim.Time(sim.Millisecond) {
		t.Fatalf("GetTimeout = (%d, %v) at %v, want a timeout at the 5ms deadline", got, ok, when)
	}
}

// takeWaiter is a handler that waits once with TakeTimeout.
type takeWaiter struct {
	e    *sim.Engine
	mb   *sim.Mailbox[int]
	d    sim.Duration
	got  int
	ok   bool
	done bool
	when sim.Time
}

func (w *takeWaiter) HandleEvent() {
	if v, ok, done := w.mb.TakeTimeout(w, w.d); done {
		w.got, w.ok, w.done, w.when = v, ok, true, w.e.Now()
	}
}

// TakeTimeout's form of TestGetTimeoutWokenForDroppedMessageTimesOut: a
// handler a Put scheduled must still time out at its deadline when drop
// mode discards the message before it runs.
func TestTakeTimeoutWokenForDroppedMessageTimesOut(t *testing.T) {
	e := sim.New()
	mb := sim.NewMailbox[int](e, "mb")
	putThenDrop(e, mb)
	w := &takeWaiter{e: e, mb: mb, d: 5 * sim.Millisecond}
	e.ScheduleHandler(0, w)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !w.done || w.ok || w.when != 5*sim.Time(sim.Millisecond) {
		t.Fatalf("TakeTimeout = (%d, %v, done %v) at %v, want a timeout at the 5ms deadline",
			w.got, w.ok, w.done, w.when)
	}
}

// A label formats like fmt.Sprintf, and only when read.
func TestMailboxLabel(t *testing.T) {
	e := sim.New()
	for _, tc := range []struct {
		l    sim.Label
		want string
	}{
		{sim.Labelf("inbox"), "inbox"},
		{sim.Labelf("100%"), "100%"},
		{sim.Labelf("host.q%d", 41), "host.q41"},
		{sim.Labelf("node%d.join.q%d", 3, 7), "node3.join.q7"},
	} {
		if got := sim.NewMailboxLabel[int](e, tc.l).Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}

// A consumer handler attached to a mailbox that already holds messages is
// scheduled at once and drains them in one event.
func TestConsumeDrainsBacklog(t *testing.T) {
	e := sim.New()
	mb := sim.NewMailbox[int](e, "mb")
	mb.Put(1)
	mb.Put(2)
	c := &drainHandler{mb: mb}
	mb.Consume(c)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if c.got != 2 || e.Stats().Events != 1 {
		t.Fatalf("consumer took %d messages in %d events, want 2 in 1", c.got, e.Stats().Events)
	}
	mb.Put(3)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if c.got != 3 {
		t.Fatalf("re-armed consumer took %d messages, want 3", c.got)
	}
}

// drainHandler consumes its mailbox, counting messages.
type drainHandler struct {
	mb  *sim.Mailbox[int]
	got int
}

func (h *drainHandler) HandleEvent() {
	for _, ok := h.mb.Take(); ok; _, ok = h.mb.Take() {
		h.got++
	}
}

// Take on a mailbox with no consumer handler only polls it: running empty
// arms nothing, so a later Put schedules no event.
func TestTakeWithoutConsumerArmsNothing(t *testing.T) {
	e := sim.New()
	mb := sim.NewMailbox[int](e, "mb")
	mb.Put(1)
	if v, ok := mb.Take(); !ok || v != 1 {
		t.Fatalf("Take = %d, %v", v, ok)
	}
	if _, ok := mb.Take(); ok {
		t.Fatal("Take on an empty mailbox reported a message")
	}
	mb.Put(2)
	if e.Pending() != 0 {
		t.Fatalf("Put scheduled %d events with no consumer", e.Pending())
	}
}
