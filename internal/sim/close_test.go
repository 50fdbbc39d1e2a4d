package sim_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// settleGoroutines waits briefly for the goroutine count to fall back to
// base: a process goroutine that Close has retired may still be returning.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after Close, want <= %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCloseUnwindsEveryProcess(t *testing.T) {
	base := runtime.NumGoroutine()
	e := sim.New()
	mb := sim.NewMailbox[int](e, "mb")
	f := sim.NewFacility(e, "f")
	var unwound, parkedGot, heldWoke, waiterServed, lateRan, doneRan int
	simtest.Spawn(e, "parked", func(p *simtest.Proc) {
		defer func() { unwound++ }()
		simtest.Get(p, mb)
		parkedGot++
	})
	simtest.Spawn(e, "held", func(p *simtest.Proc) {
		defer func() { unwound++ }()
		p.Hold(sim.Second)
		heldWoke++
	})
	simtest.Spawn(e, "holder", func(p *simtest.Proc) {
		defer func() { unwound++ }()
		simtest.Use(p, f, sim.Second, 0) // holds the facility at Close
	})
	simtest.Spawn(e, "waiter", func(p *simtest.Proc) {
		defer func() { unwound++ }()
		simtest.Use(p, f, sim.Millisecond, 0) // queued behind the holder
		waiterServed++
	})
	simtest.SpawnAt(e, sim.Time(sim.Second), "unstarted", func(p *simtest.Proc) { lateRan++ })
	simtest.Spawn(e, "done", func(p *simtest.Proc) { doneRan++ })
	if err := e.RunUntil(sim.Time(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if simtest.Active(e) != 5 || e.Pending() == 0 {
		t.Fatalf("before Close: active=%d pending=%d", simtest.Active(e), e.Pending())
	}
	simtest.Close(e)
	if simtest.Active(e) != 0 || e.Pending() != 0 || simtest.Parked(e) != 0 {
		t.Fatalf("after Close: active=%d pending=%d parked=%d", simtest.Active(e), e.Pending(), simtest.Parked(e))
	}
	if unwound != 4 {
		t.Fatalf("deferred calls ran in %d of 4 started processes", unwound)
	}
	if parkedGot+heldWoke+waiterServed+lateRan != 0 || doneRan != 1 {
		t.Fatalf("bodies ran past the teardown point: got=%d woke=%d served=%d late=%d done=%d",
			parkedGot, heldWoke, waiterServed, lateRan, doneRan)
	}
	settleGoroutines(t, base)
}

func TestCloseTwiceAndRunAfterClose(t *testing.T) {
	base := runtime.NumGoroutine()
	e := sim.New()
	ran := 0
	simtest.Spawn(e, "p", func(p *simtest.Proc) {
		p.Hold(sim.Millisecond)
		ran++
	})
	simtest.Close(e)
	simtest.Close(e)
	e.Resume()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 0 || e.Now() != 0 {
		t.Fatalf("closed engine ran: ran=%d now=%v", ran, e.Now())
	}
	e.Schedule(0, func() { ran++ })
	if err := e.Run(); err != nil || ran != 0 {
		t.Fatalf("closed engine ran a late callback: ran=%d err=%v", ran, err)
	}
	settleGoroutines(t, base)
}

// A deferred call that parks or holds again, or spawns a process, must not
// strand a goroutine: the parking call unwinds again and the spawned
// process exits without running its body.
func TestCloseUnwindsDeferredPark(t *testing.T) {
	base := runtime.NumGoroutine()
	e := sim.New()
	mb := sim.NewMailbox[int](e, "mb")
	var deferred, pastPark, spawnedRan int
	simtest.Spawn(e, "stubborn", func(p *simtest.Proc) {
		defer func() {
			deferred++
			simtest.Spawn(e, "orphan", func(*simtest.Proc) { spawnedRan++ })
			p.Hold(sim.Second)
			pastPark++
		}()
		defer func() {
			deferred++
			p.Park()
			pastPark++
		}()
		simtest.Get(p, mb)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	simtest.Close(e)
	if deferred != 2 || pastPark != 0 || spawnedRan != 0 {
		t.Fatalf("deferred=%d pastPark=%d spawnedRan=%d, want 2, 0, 0", deferred, pastPark, spawnedRan)
	}
	if simtest.Active(e) != 0 || e.Pending() != 0 {
		t.Fatalf("after Close: active=%d pending=%d", simtest.Active(e), e.Pending())
	}
	settleGoroutines(t, base)
}

// Close retires a process it finds unstarted without running its body:
// one due later than the run reached, and one spawned after the run.
func TestKillUnstartedProcessNeverRunsBody(t *testing.T) {
	e := sim.New()
	ran := false
	simtest.SpawnAt(e, sim.Time(5*sim.Millisecond), "victim", func(p *simtest.Proc) {
		ran = true
		p.Hold(sim.Millisecond)
	})
	if err := e.RunUntil(sim.Time(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	simtest.Spawn(e, "early", func(p *simtest.Proc) { ran = true })
	simtest.Close(e)
	if ran {
		t.Fatal("a process closed before its first resume ran its body")
	}
	if simtest.Active(e) != 0 {
		t.Fatalf("active = %d", simtest.Active(e))
	}
}

// namedHandler is a handler with a name that panics when it runs.
type namedHandler struct{ name string }

func (h *namedHandler) HandleEvent() { panic("handler boom") }
func (h *namedHandler) Name() string { return h.name }

// A panic in a callback or a handler fails the run with an ErrPanicked
// error instead of unwinding through RunUntil; the handler's error carries
// its name. simtest.Close then still retires every test process,
// including those left parked and held.
func TestHandlerPanicFailsRun(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		arm        func(e *sim.Engine)
	}{
		{"callback", "sim: callback panicked: callback boom", func(e *sim.Engine) {
			e.Schedule(sim.Millisecond, func() { panic("callback boom") })
		}},
		{"handler", `sim: handler "node0.opmgr" panicked: handler boom`, func(e *sim.Engine) {
			mb := sim.NewMailbox[int](e, "inbox")
			mb.Consume(&namedHandler{name: "node0.opmgr"})
			e.Schedule(sim.Millisecond, func() { mb.Put(1) })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := sim.New()
			parked := sim.NewMailbox[int](e, "parked")
			simtest.Spawn(e, "parked", func(p *simtest.Proc) { simtest.Get(p, parked) })
			simtest.Spawn(e, "held", func(p *simtest.Proc) { p.Hold(sim.Second) })
			ran := false
			e.Schedule(2*sim.Millisecond, func() { ran = true })
			tc.arm(e)
			err := e.Run()
			if !errors.Is(err, sim.ErrPanicked) {
				t.Fatalf("Run error %v, want one wrapping ErrPanicked", err)
			}
			if !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("Run error %q, want prefix %q", err, tc.want)
			}
			if ran || e.Now() != sim.Time(sim.Millisecond) {
				t.Fatalf("run went on after the panic: later event ran %v, now %v", ran, e.Now())
			}
			if err2 := e.Run(); err2 != err {
				t.Fatalf("second Run returned %v, want the recorded error", err2)
			}
			simtest.Close(e)
			if simtest.Active(e) != 0 {
				t.Fatalf("%d processes live after Close", simtest.Active(e))
			}
			settleGoroutines(t, base)
		})
	}
}
