package sim

import "testing"

// These tests pin down the mailbox behaviors the fault-injection and
// degraded-execution layers lean on: GetTimeout's remove-before-wake timer
// discipline and drop mode discarding traffic destined for a crashed node. The suite runs under -race in CI.

func TestGetTimeoutExpires(t *testing.T) {
	e := New()
	mb := NewMailbox[int](e, "mb")
	var ok bool
	var when Time
	e.Spawn("reader", func(p *Proc) {
		_, ok = mb.GetTimeout(p, 7*Millisecond)
		when = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("GetTimeout on a silent mailbox reported a message")
	}
	if when != 7*Time(Millisecond) {
		t.Fatalf("reader resumed at %v, want the 7ms deadline", when)
	}
}

func TestGetTimeoutMessageBeatsDeadline(t *testing.T) {
	e := New()
	mb := NewMailbox[int](e, "mb")
	var got int
	var ok bool
	e.Spawn("reader", func(p *Proc) {
		got, ok = mb.GetTimeout(p, 10*Millisecond)
		if p.Now() != 3*Time(Millisecond) {
			t.Errorf("reader resumed at %v, want 3ms", p.Now())
		}
	})
	e.Spawn("writer", func(p *Proc) {
		p.Hold(3 * Millisecond)
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
	e := New()
	mb := NewMailbox[int](e, "mb")
	var got int
	var ok bool
	e.Spawn("reader", func(p *Proc) {
		got, ok = mb.GetTimeout(p, 5*Millisecond)
	})
	e.Spawn("writer", func(p *Proc) {
		p.Hold(5 * Millisecond)
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
	e := New()
	mb := NewMailbox[int](e, "mb")
	var first, second bool
	var got int
	e.Spawn("reader", func(p *Proc) {
		_, first = mb.GetTimeout(p, Millisecond)
		got, second = mb.GetTimeout(p, 10*Millisecond)
	})
	e.Spawn("writer", func(p *Proc) {
		p.Hold(4 * Millisecond)
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
	e := New()
	mb := NewMailbox[int](e, "mb")
	var unwound, returned int
	e.Spawn("reader", func(p *Proc) {
		defer func() { unwound++ }()
		mb.GetTimeout(p, 100*Millisecond)
		returned++
	})
	if err := e.RunUntil(Time(Millisecond)); err != nil {
		t.Fatal(err)
	}
	if e.Active() != 1 || e.Pending() != 1 {
		t.Fatalf("before Close: active=%d pending=%d, want the reader and its deadline", e.Active(), e.Pending())
	}
	e.Close()
	if unwound != 1 || returned != 0 {
		t.Fatalf("unwound=%d returned=%d, want 1, 0", unwound, returned)
	}
	if e.Active() != 0 || e.Pending() != 0 {
		t.Fatalf("after Close: active=%d pending=%d", e.Active(), e.Pending())
	}
}

func TestSetDropDiscardsWhileDownThenResumes(t *testing.T) {
	e := New()
	mb := NewMailbox[int](e, "mb")
	var got []int
	e.Spawn("reader", func(p *Proc) {
		for i := 0; i < 2; i++ {
			got = append(got, mb.Get(p))
		}
	})
	e.Spawn("driver", func(p *Proc) {
		p.Hold(Millisecond)
		mb.Put(1)           // delivered
		p.Hold(Millisecond) // let the reader drain before the outage
		mb.SetDrop(true)
		mb.Put(2) // lost: node is down
		mb.Put(3) // lost
		mb.SetDrop(false)
		p.Hold(Millisecond)
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
	e := New()
	mb := NewMailbox[int](e, "mb")
	got := -1
	e.Spawn("reader", func(p *Proc) {
		got = mb.Get(p)
	})
	e.Spawn("driver", func(p *Proc) {
		p.Hold(Millisecond)
		mb.SetDrop(true)
		mb.Put(7) // lost while the reader is parked
		p.Hold(Millisecond)
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
