package sim_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// These tests pin down the mailbox behaviors the fault-injection and
// degraded-execution layers lean on: GetTimeout's remove-before-wake timer
// discipline and drop mode discarding traffic destined for a crashed node. The suite runs under -race in CI.

func TestGetTimeoutExpires(t *testing.T) {
	e := sim.New()
	mb := sim.NewMailbox[int](e, "mb")
	var ok bool
	var when sim.Time
	simtest.Spawn(e, "reader", func(p *simtest.Proc) {
		_, ok = simtest.GetTimeout(p, mb, 7*sim.Millisecond)
		when = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("GetTimeout on a silent mailbox reported a message")
	}
	if when != 7*sim.Time(sim.Millisecond) {
		t.Fatalf("reader resumed at %v, want the 7ms deadline", when)
	}
}

func TestGetTimeoutMessageBeatsDeadline(t *testing.T) {
	e := sim.New()
	mb := sim.NewMailbox[int](e, "mb")
	var got int
	var ok bool
	simtest.Spawn(e, "reader", func(p *simtest.Proc) {
		got, ok = simtest.GetTimeout(p, mb, 10*sim.Millisecond)
		if p.Now() != 3*sim.Time(sim.Millisecond) {
			t.Errorf("reader resumed at %v, want 3ms", p.Now())
		}
	})
	simtest.Spawn(e, "writer", func(p *simtest.Proc) {
		p.Hold(3 * sim.Millisecond)
		mb.Put(42)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok || got != 42 {
		t.Fatalf("GetTimeout = (%d, %v)", got, ok)
	}
}

// A message arriving exactly at the deadline instant must win over the
// timer: the waker removes its target from the waiter ring before waking it,
// so a Put and a timeout can never both claim the same parked process.
func TestGetTimeoutMessageAtDeadlineInstantWins(t *testing.T) {
	e := sim.New()
	mb := sim.NewMailbox[int](e, "mb")
	var got int
	var ok bool
	simtest.Spawn(e, "reader", func(p *simtest.Proc) {
		got, ok = simtest.GetTimeout(p, mb, 5*sim.Millisecond)
	})
	simtest.Spawn(e, "writer", func(p *simtest.Proc) {
		p.Hold(5 * sim.Millisecond)
		mb.Put(9)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok || got != 9 {
		t.Fatalf("GetTimeout = (%d, %v), want the message to win the tie", got, ok)
	}
}

// After a timed-out GetTimeout, the same process must be able to park again
// and receive a later message (its vacated waiter-ring slot must not
// swallow the wake).
func TestGetTimeoutThenBlockAgain(t *testing.T) {
	e := sim.New()
	mb := sim.NewMailbox[int](e, "mb")
	var first, second bool
	var got int
	simtest.Spawn(e, "reader", func(p *simtest.Proc) {
		_, first = simtest.GetTimeout(p, mb, sim.Millisecond)
		got, second = simtest.GetTimeout(p, mb, 10*sim.Millisecond)
	})
	simtest.Spawn(e, "writer", func(p *simtest.Proc) {
		p.Hold(4 * sim.Millisecond)
		mb.Put(5)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if first {
		t.Fatal("first GetTimeout should have timed out")
	}
	if !second || got != 5 {
		t.Fatalf("second GetTimeout = (%d, %v)", got, second)
	}
}

// Drop mode is how a crashed node's inbox fail-silences: messages vanish
// while down, and delivery resumes — without replaying the lost ones — on
// restart.
// Engine.Close retires a reader parked in GetTimeout before its deadline:
// its deferred call runs, the code past the wait does not, and the pending
// deadline timer is discarded with the engine.
func TestCloseReleasesGetTimeoutReader(t *testing.T) {
	e := sim.New()
	mb := sim.NewMailbox[int](e, "mb")
	var unwound, returned int
	simtest.Spawn(e, "reader", func(p *simtest.Proc) {
		defer func() { unwound++ }()
		simtest.GetTimeout(p, mb, 100*sim.Millisecond)
		returned++
	})
	if err := e.RunUntil(sim.Time(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if simtest.Active(e) != 1 || e.Pending() != 1 {
		t.Fatalf("before Close: active=%d pending=%d, want the reader and its deadline", simtest.Active(e), e.Pending())
	}
	simtest.Close(e)
	if unwound != 1 || returned != 0 {
		t.Fatalf("unwound=%d returned=%d, want 1, 0", unwound, returned)
	}
	if simtest.Active(e) != 0 || e.Pending() != 0 {
		t.Fatalf("after Close: active=%d pending=%d", simtest.Active(e), e.Pending())
	}
}

func TestSetDropDiscardsWhileDownThenResumes(t *testing.T) {
	e := sim.New()
	mb := sim.NewMailbox[int](e, "mb")
	var got []int
	simtest.Spawn(e, "reader", func(p *simtest.Proc) {
		for i := 0; i < 2; i++ {
			got = append(got, simtest.Get(p, mb))
		}
	})
	simtest.Spawn(e, "driver", func(p *simtest.Proc) {
		p.Hold(sim.Millisecond)
		mb.Put(1)               // delivered
		p.Hold(sim.Millisecond) // let the reader drain before the outage
		mb.SetDrop(true)
		mb.Put(2) // lost: node is down
		mb.Put(3) // lost
		mb.SetDrop(false)
		p.Hold(sim.Millisecond)
		mb.Put(4) // delivered after restart
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("delivered %v, want [1 4]", got)
	}
}

// Entering drop mode while a reader is parked must not wake or lose the
// reader: it stays blocked through the outage and gets the first message
// after recovery.
func TestSetDropWhileReaderBlocked(t *testing.T) {
	e := sim.New()
	mb := sim.NewMailbox[int](e, "mb")
	got := -1
	simtest.Spawn(e, "reader", func(p *simtest.Proc) {
		got = simtest.Get(p, mb)
	})
	simtest.Spawn(e, "driver", func(p *simtest.Proc) {
		p.Hold(sim.Millisecond)
		mb.SetDrop(true)
		mb.Put(7) // lost while the reader is parked
		p.Hold(sim.Millisecond)
		mb.SetDrop(false)
		mb.Put(8)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 8 {
		t.Fatalf("reader got %d, want the post-recovery message 8", got)
	}
}
