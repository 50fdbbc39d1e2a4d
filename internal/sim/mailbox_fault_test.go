package sim

import "testing"

// These tests pin down the mailbox behaviors the fault-injection and
// degraded-execution layers lean on: GetTimeout's remove-before-wake timer
// discipline, Close releasing blocked readers, and drop mode discarding
// traffic destined for a crashed node. The suite runs under -race in CI.

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

func TestCloseReleasesBlockedReader(t *testing.T) {
	e := New()
	mb := NewMailbox[int](e, "mb")
	var ok = true
	var when Time
	e.Spawn("reader", func(p *Proc) {
		_, ok = mb.Recv(p)
		when = p.Now()
	})
	e.Spawn("closer", func(p *Proc) {
		p.Hold(2 * Millisecond)
		mb.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Recv on a closed mailbox reported a message")
	}
	if when != 2*Time(Millisecond) {
		t.Fatalf("reader released at %v, want the close instant", when)
	}
}

func TestCloseReleasesGetTimeoutReader(t *testing.T) {
	e := New()
	mb := NewMailbox[int](e, "mb")
	var ok = true
	var when Time
	e.Spawn("reader", func(p *Proc) {
		_, ok = mb.GetTimeout(p, time100ms)
		when = p.Now()
	})
	e.Spawn("closer", func(p *Proc) {
		p.Hold(Millisecond)
		mb.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("GetTimeout on a closed mailbox reported a message")
	}
	if when != Time(Millisecond) {
		t.Fatalf("reader released at %v, want the close instant, not the deadline", when)
	}
}

const time100ms = 100 * Millisecond

func TestCloseDiscardsBacklogAndFuturePuts(t *testing.T) {
	e := New()
	mb := NewMailbox[int](e, "mb")
	mb.Put(1)
	mb.Put(2)
	mb.Close()
	if mb.Len() != 0 {
		t.Fatalf("backlog survived close: len = %d", mb.Len())
	}
	mb.Put(3)
	if mb.Len() != 0 {
		t.Fatalf("post-close put was queued: len = %d", mb.Len())
	}
	if _, ok := mb.TryGet(); ok {
		t.Fatal("TryGet on closed mailbox returned a message")
	}
}

// Drop mode is how a crashed node's inbox fail-silences: messages vanish
// while down, and delivery resumes — without replaying the lost ones — on
// restart.
func TestSetDropDiscardsWhileDownThenResumes(t *testing.T) {
	e := New()
	mb := NewMailbox[int](e, "mb")
	var got []int
	e.Spawn("reader", func(p *Proc) {
		for i := 0; i < 2; i++ {
			v, ok := mb.Recv(p)
			if !ok {
				return
			}
			got = append(got, v)
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
	var got int
	var ok bool
	e.Spawn("reader", func(p *Proc) {
		got, ok = mb.Recv(p)
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
	if !ok || got != 8 {
		t.Fatalf("reader got (%d, %v), want the post-recovery message 8", got, ok)
	}
}
