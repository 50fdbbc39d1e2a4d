package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
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
	e := New()
	mb := NewMailbox[int](e, "mb")
	f := NewFacility(e, "f")
	var unwound, parkedGot, heldWoke, waiterServed, lateRan, doneRan int
	e.Spawn("parked", func(p *Proc) {
		defer func() { unwound++ }()
		mb.Get(p)
		parkedGot++
	})
	e.Spawn("held", func(p *Proc) {
		defer func() { unwound++ }()
		p.Hold(Second)
		heldWoke++
	})
	e.Spawn("holder", func(p *Proc) {
		defer func() { unwound++ }()
		f.UsePriority(p, Second, 0) // holds the facility at Close
	})
	e.Spawn("waiter", func(p *Proc) {
		defer func() { unwound++ }()
		f.UsePriority(p, Millisecond, 0) // queued behind the holder
		waiterServed++
	})
	e.SpawnAt(Time(Second), "unstarted", func(p *Proc) { lateRan++ })
	e.Spawn("done", func(p *Proc) { doneRan++ })
	if err := e.RunUntil(Time(Millisecond)); err != nil {
		t.Fatal(err)
	}
	if e.Active() != 5 || e.Pending() == 0 {
		t.Fatalf("before Close: active=%d pending=%d", e.Active(), e.Pending())
	}
	e.Close()
	if e.Active() != 0 || e.Pending() != 0 || e.Parked() != 0 {
		t.Fatalf("after Close: active=%d pending=%d parked=%d", e.Active(), e.Pending(), e.Parked())
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
	e := New()
	ran := 0
	e.Spawn("p", func(p *Proc) {
		p.Hold(Millisecond)
		ran++
	})
	e.Close()
	e.Close()
	e.Resume()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 0 || e.Now() != 0 {
		t.Fatalf("closed engine ran: ran=%d now=%v", ran, e.Now())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Spawn on a closed engine did not panic")
			}
		}()
		e.Spawn("late", func(p *Proc) {})
	}()
	settleGoroutines(t, base)
}

// A deferred call that parks or holds again, or spawns a process, must not
// strand a goroutine: the parking call unwinds again and the spawned
// process exits without running its body.
func TestCloseUnwindsDeferredPark(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New()
	mb := NewMailbox[int](e, "mb")
	var deferred, pastPark, spawnedRan int
	e.Spawn("stubborn", func(p *Proc) {
		defer func() {
			deferred++
			e.Spawn("orphan", func(*Proc) { spawnedRan++ })
			p.Hold(Second)
			pastPark++
		}()
		defer func() {
			deferred++
			p.Park()
			pastPark++
		}()
		mb.Get(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if deferred != 2 || pastPark != 0 || spawnedRan != 0 {
		t.Fatalf("deferred=%d pastPark=%d spawnedRan=%d, want 2, 0, 0", deferred, pastPark, spawnedRan)
	}
	if e.Active() != 0 || e.Pending() != 0 {
		t.Fatalf("after Close: active=%d pending=%d", e.Active(), e.Pending())
	}
	settleGoroutines(t, base)
}

// Close retires a process it finds unstarted without running its body:
// one due later than the run reached, and one spawned after the run.
func TestKillUnstartedProcessNeverRunsBody(t *testing.T) {
	e := New()
	ran := false
	e.SpawnAt(Time(5*Millisecond), "victim", func(p *Proc) {
		ran = true
		p.Hold(Millisecond)
	})
	if err := e.RunUntil(Time(Millisecond)); err != nil {
		t.Fatal(err)
	}
	e.Spawn("early", func(p *Proc) { ran = true })
	e.Close()
	if ran {
		t.Fatal("a process closed before its first resume ran its body")
	}
	if e.Active() != 0 {
		t.Fatalf("active = %d", e.Active())
	}
}

// namedHandler is a handler with a name that panics when it runs.
type namedHandler struct{ name string }

func (h *namedHandler) HandleEvent() { panic("handler boom") }
func (h *namedHandler) Name() string { return h.name }

// A panic in a callback or a handler fails the run with an ErrPanicked
// error, as a panicking process does, instead of unwinding through
// RunUntil; the handler's error carries its name. Close then still retires
// every coroutine, including those of processes left parked and held.
func TestHandlerPanicFailsRun(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		arm        func(e *Engine)
	}{
		{"callback", "sim: callback panicked: callback boom", func(e *Engine) {
			e.Schedule(Millisecond, func() { panic("callback boom") })
		}},
		{"handler", `sim: handler "node0.opmgr" panicked: handler boom`, func(e *Engine) {
			mb := NewMailbox[int](e, "inbox")
			mb.Consume(&namedHandler{name: "node0.opmgr"})
			e.Schedule(Millisecond, func() { mb.Put(1) })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := New()
			parked := NewMailbox[int](e, "parked")
			e.Spawn("parked", func(p *Proc) { parked.Get(p) })
			e.Spawn("held", func(p *Proc) { p.Hold(Second) })
			ran := false
			e.Schedule(2*Millisecond, func() { ran = true })
			tc.arm(e)
			err := e.Run()
			if !errors.Is(err, ErrPanicked) {
				t.Fatalf("Run error %v, want one wrapping ErrPanicked", err)
			}
			if !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("Run error %q, want prefix %q", err, tc.want)
			}
			if ran || e.Now() != Time(Millisecond) {
				t.Fatalf("run went on after the panic: later event ran %v, now %v", ran, e.Now())
			}
			if err2 := e.Run(); err2 != err {
				t.Fatalf("second Run returned %v, want the recorded error", err2)
			}
			e.Close()
			if e.Active() != 0 {
				t.Fatalf("%d processes live after Close", e.Active())
			}
			settleGoroutines(t, base)
		})
	}
}
