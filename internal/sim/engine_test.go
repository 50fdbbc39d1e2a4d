package sim_test

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

func TestMillisecondsConversion(t *testing.T) {
	if sim.Milliseconds(2.0) != 2*sim.Millisecond {
		t.Fatal("2ms conversion wrong")
	}
	if sim.Milliseconds(0.6) != 600*sim.Microsecond {
		t.Fatalf("0.6ms = %d ns", sim.Milliseconds(0.6))
	}
	if got := sim.Duration(1500 * sim.Microsecond).Milliseconds(); got != 1.5 {
		t.Fatalf("1.5ms round-trip = %g", got)
	}
	if got := sim.Time(2 * sim.Second).Seconds(); got != 2 {
		t.Fatalf("2s = %g", got)
	}
}

func TestHoldAdvancesClock(t *testing.T) {
	e := sim.New()
	var seen []sim.Time
	simtest.Spawn(e, "p", func(p *simtest.Proc) {
		seen = append(seen, p.Now())
		p.Hold(5 * sim.Millisecond)
		seen = append(seen, p.Now())
		p.Hold(3 * sim.Millisecond)
		seen = append(seen, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []sim.Time{0, 5 * sim.Time(sim.Millisecond), 8 * sim.Time(sim.Millisecond)}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("step %d at %v, want %v", i, seen[i], want[i])
		}
	}
	if e.Now() != 8*sim.Time(sim.Millisecond) {
		t.Fatalf("final clock %v", e.Now())
	}
}

func TestFIFOOrderAtSameTimestamp(t *testing.T) {
	e := sim.New()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		simtest.Spawn(e, name, func(p *simtest.Proc) {
			order = append(order, name)
			p.Hold(sim.Millisecond)
			order = append(order, name+"2")
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c", "a2", "b2", "c2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestScheduleCallback(t *testing.T) {
	e := sim.New()
	var at sim.Time = -1
	simtest.Spawn(e, "p", func(p *simtest.Proc) {
		e.Schedule(7*sim.Millisecond, func() { at = e.Now() })
		p.Hold(10 * sim.Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 7*sim.Time(sim.Millisecond) {
		t.Fatalf("callback at %v", at)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := sim.New()
	steps := 0
	simtest.Spawn(e, "p", func(p *simtest.Proc) {
		for i := 0; i < 100; i++ {
			p.Hold(sim.Millisecond)
			steps++
		}
	})
	if err := e.RunUntil(10 * sim.Time(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if steps != 10 {
		t.Fatalf("steps = %d, want 10", steps)
	}
	if e.Now() != 10*sim.Time(sim.Millisecond) {
		t.Fatalf("clock = %v", e.Now())
	}
	// Resume processing the rest.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 100 {
		t.Fatalf("steps after Run = %d", steps)
	}
}

// A second RunUntil with an earlier deadline runs nothing and leaves the
// clock where the first one put it.
func TestRunUntilEarlierDeadlineKeepsClock(t *testing.T) {
	e := sim.New()
	ran := 0
	e.Schedule(20*sim.Millisecond, func() { ran++ })
	if err := e.RunUntil(15 * sim.Time(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(5 * sim.Time(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 15*sim.Time(sim.Millisecond) {
		t.Fatalf("clock = %v after RunUntil(15ms) then RunUntil(5ms), want 15ms", e.Now())
	}
	if ran != 0 || e.Pending() != 1 {
		t.Fatalf("ran = %d, pending = %d; want the 20ms event still pending", ran, e.Pending())
	}
}

func TestStopFromProcess(t *testing.T) {
	e := sim.New()
	ran := 0
	simtest.Spawn(e, "p", func(p *simtest.Proc) {
		for {
			p.Hold(sim.Millisecond)
			ran++
			if ran == 5 {
				e.Stop()
				// The process keeps executing until its next yield.
				return
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 5 {
		t.Fatalf("ran = %d", ran)
	}
	if !e.Stopped() {
		t.Fatal("engine should report stopped")
	}
}

func TestProcessPanicSurfacesAsError(t *testing.T) {
	e := sim.New()
	simtest.Spawn(e, "bad", func(p *simtest.Proc) {
		p.Hold(sim.Millisecond)
		panic("boom")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("expected error from panicking process")
	}
}

func TestSpawnAt(t *testing.T) {
	e := sim.New()
	var started sim.Time = -1
	simtest.SpawnAt(e, 4*sim.Time(sim.Millisecond), "late", func(p *simtest.Proc) { started = p.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if started != 4*sim.Time(sim.Millisecond) {
		t.Fatalf("started at %v", started)
	}
}

// Close unwinds a process parked on a mailbox: its deferred calls run and
// it never receives a message.
func TestKillParkedProcess(t *testing.T) {
	e := sim.New()
	mb := sim.NewMailbox[int](e, "mb")
	gotMsg, deferred := false, false
	simtest.Spawn(e, "victim", func(p *simtest.Proc) {
		defer func() { deferred = true }()
		simtest.Get(p, mb)
		gotMsg = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	simtest.Close(e)
	if gotMsg || !deferred {
		t.Fatalf("closed parked process: gotMsg=%v deferred=%v, want false, true", gotMsg, deferred)
	}
	if simtest.Active(e) != 0 {
		t.Fatalf("active = %d after Close", simtest.Active(e))
	}
}

// Close unwinds a process in the middle of a Hold: its deferred calls run
// and the code past the Hold never does.
func TestKillHeldProcess(t *testing.T) {
	e := sim.New()
	finished, deferred := false, false
	simtest.Spawn(e, "victim", func(p *simtest.Proc) {
		defer func() { deferred = true }()
		p.Hold(100 * sim.Millisecond)
		finished = true
	})
	if err := e.RunUntil(sim.Time(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	simtest.Close(e)
	if finished || !deferred {
		t.Fatalf("closed held process: finished=%v deferred=%v, want false, true", finished, deferred)
	}
	if simtest.Active(e) != 0 {
		t.Fatalf("active = %d", simtest.Active(e))
	}
}

func TestActiveAndParkedAccounting(t *testing.T) {
	e := sim.New()
	mb := sim.NewMailbox[int](e, "mb")
	simtest.Spawn(e, "consumer", func(p *simtest.Proc) { simtest.Get(p, mb) })
	simtest.Spawn(e, "checker", func(p *simtest.Proc) {
		p.Hold(sim.Millisecond)
		if simtest.Active(e) != 2 {
			t.Errorf("active = %d, want 2", simtest.Active(e))
		}
		if simtest.Parked(e) != 1 {
			t.Errorf("parked = %d, want 1", simtest.Parked(e))
		}
		mb.Put(1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if simtest.Active(e) != 0 || simtest.Parked(e) != 0 {
		t.Fatalf("final active=%d parked=%d", simtest.Active(e), simtest.Parked(e))
	}
}

func TestTraceSink(t *testing.T) {
	e := sim.New()
	var events []obs.TraceEvent
	e.SetSink(obs.SinkFunc(func(ev obs.TraceEvent) { events = append(events, ev) }))
	if !e.Tracing() {
		t.Fatal("Tracing() = false with a sink attached")
	}
	f := sim.NewFacility(e, "cpu")
	simtest.Spawn(e, "p", func(p *simtest.Proc) {
		simtest.Use(p, f, sim.Millisecond, 0)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no trace events recorded")
	}
	var spans int
	for _, ev := range events {
		if ev.Kind == obs.KindSpan && ev.Category == "facility" && ev.Name == "p" {
			spans++
			if ev.Dur != int64(sim.Millisecond) {
				t.Errorf("span dur = %d, want %d", ev.Dur, int64(sim.Millisecond))
			}
		}
	}
	if spans != 1 {
		t.Errorf("facility spans = %d, want 1", spans)
	}
}

func TestNoSinkNoTrace(t *testing.T) {
	e := sim.New()
	if e.Tracing() {
		t.Fatal("Tracing() = true without a sink")
	}
	// EmitNow without a sink must be a safe no-op.
	e.EmitNow(obs.TraceEvent{Name: "dropped"})
}

func TestNegativeHoldPanics(t *testing.T) {
	e := sim.New()
	simtest.Spawn(e, "p", func(p *simtest.Proc) { p.Hold(-1) })
	if err := e.Run(); err == nil {
		t.Fatal("negative hold should surface as error")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []sim.Time {
		e := sim.New()
		f := sim.NewFacility(e, "f")
		mb := sim.NewMailbox[int](e, "mb")
		var log []sim.Time
		for i := 0; i < 5; i++ {
			i := i
			simtest.Spawn(e, "w", func(p *simtest.Proc) {
				p.Hold(sim.Duration(i) * sim.Millisecond)
				simtest.Use(p, f, 2*sim.Millisecond, 0)
				mb.Put(i)
				log = append(log, p.Now())
			})
		}
		simtest.Spawn(e, "c", func(p *simtest.Proc) {
			for i := 0; i < 5; i++ {
				simtest.Get(p, mb)
				log = append(log, p.Now())
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("replays differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestResumeAfterStop(t *testing.T) {
	e := sim.New()
	steps := 0
	simtest.Spawn(e, "p", func(p *simtest.Proc) {
		for i := 0; i < 10; i++ {
			p.Hold(sim.Millisecond)
			steps++
			if steps == 3 {
				e.Stop()
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 3 {
		t.Fatalf("steps before resume = %d", steps)
	}
	e.Resume()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 10 {
		t.Fatalf("steps after resume = %d", steps)
	}
}
