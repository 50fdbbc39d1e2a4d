package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
)

// A panicking process fails the run with an ErrPanicked error carrying its
// name and message, and its coroutine survives the panic: the next spawn
// reuses it and runs the new body to completion.
func TestPanicKeepsCoroutineReusable(t *testing.T) {
	e := New()
	bad := e.Spawn("bad", func(p *Proc) {
		p.Hold(Millisecond)
		panic("boom")
	})
	err := e.Run()
	if !errors.Is(err, ErrPanicked) || !strings.Contains(err.Error(), `process "bad" panicked: boom`) {
		t.Fatalf("Run error = %v, want the bad process's panic", err)
	}
	co := bad.co
	var woke Time
	next := e.Spawn("next", func(p *Proc) {
		p.Hold(Millisecond)
		woke = p.Now()
	})
	if next.co != co || e.Stats().CoroutinesReused != 1 {
		t.Fatalf("next spawn did not reuse the panicked process's coroutine: %+v", e.Stats())
	}
	// A failed engine refuses to run on; clear the failure by hand to drive
	// the pooled coroutine.
	e.err, e.stopped = nil, false
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 2*Time(Millisecond) || e.Active() != 0 {
		t.Fatalf("reused coroutine: woke at %v, active=%d", woke, e.Active())
	}
	e.Close()
}

// Finished processes leave their coroutines idle in the pool, where they
// still count as goroutines; Close stops them all.
func TestCloseStopsIdleCoroutines(t *testing.T) {
	e := New()
	const n = 8
	for i := 0; i < n; i++ {
		e.Spawn("p", func(p *Proc) { p.Hold(Millisecond) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Active() != 0 || len(e.idle) != n {
		t.Fatalf("after Run: active=%d idle=%d, want 0 and %d", e.Active(), len(e.idle), n)
	}
	// Each idle coroutine is a live goroutine until Close stops it, so the
	// count must fall by n across Close. Reading it only around Close keeps
	// an earlier test's goroutine that exits meanwhile from failing the
	// test: such an exit can only lower the count.
	before := runtime.NumGoroutine()
	e.Close()
	if len(e.idle) != 0 {
		t.Fatalf("idle = %d after Close", len(e.idle))
	}
	settleGoroutines(t, before-n)
}

// A process Close retires before its first resume never runs its body,
// also when it was handed a reused coroutine.
func TestKillUnstartedOnReusedCoroutine(t *testing.T) {
	e := New()
	e.Spawn("first", func(p *Proc) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	ran := false
	victim := e.Spawn("victim", func(p *Proc) { ran = true })
	e.Close()
	if ran || !victim.finished || e.Active() != 0 {
		t.Fatalf("closed unstarted process: ran=%v finished=%v active=%d", ran, victim.finished, e.Active())
	}
	if st := e.Stats(); st.CoroutinesCreated != 1 || st.CoroutinesReused != 1 {
		t.Fatalf("stats=%+v, want one coroutine reused once", st)
	}
}

// An uncontended Hold loop never leaves its coroutine: every wake-up is the
// next due event, so the self-resume fast path takes each one in place.
func TestUncontendedHoldMakesNoSwitches(t *testing.T) {
	e := New()
	const holds = 100
	var during Stats
	e.Spawn("p", func(p *Proc) {
		before := e.Stats()
		for i := 0; i < holds; i++ {
			p.Hold(Microsecond)
		}
		during = e.Stats()
		during.Switches -= before.Switches
		during.SelfResumes -= before.SelfResumes
		during.Events -= before.Events
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if during.Switches != 0 || during.SelfResumes != holds || during.Events != holds {
		t.Fatalf("Hold loop: switches=%d self_resumes=%d events=%d, want 0, %d, %d",
			during.Switches, during.SelfResumes, during.Events, holds, holds)
	}
	want := Stats{Events: holds + 1, Switches: 1, SelfResumes: holds, Spawns: 1, CoroutinesCreated: 1}
	if st := e.Stats(); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	e.Close()
}
