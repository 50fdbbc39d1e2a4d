package sim

import (
	"testing"
	"unsafe"

	"repro/internal/obs"
)

func TestMillisecondsConversion(t *testing.T) {
	if Milliseconds(2.0) != 2*Millisecond {
		t.Fatal("2ms conversion wrong")
	}
	if Milliseconds(0.6) != 600*Microsecond {
		t.Fatalf("0.6ms = %d ns", Milliseconds(0.6))
	}
	if got := Duration(1500 * Microsecond).Milliseconds(); got != 1.5 {
		t.Fatalf("1.5ms round-trip = %g", got)
	}
	if got := Time(2 * Second).Seconds(); got != 2 {
		t.Fatalf("2s = %g", got)
	}
}

// The pooled event record is its time, its sequence number and one
// Handler: four words on a 64-bit target. A second target field would
// grow every record in the pool, the heap's sift and the ready ring's copy.
func TestEventRecordSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the record size is pinned for 64-bit targets")
	}
	if n := unsafe.Sizeof(event{}); n != 32 {
		t.Fatalf("event record is %d bytes, want 32", n)
	}
}

func TestHoldAdvancesClock(t *testing.T) {
	e := New()
	var seen []Time
	e.Spawn("p", func(p *Proc) {
		seen = append(seen, p.Now())
		p.Hold(5 * Millisecond)
		seen = append(seen, p.Now())
		p.Hold(3 * Millisecond)
		seen = append(seen, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, 5 * Time(Millisecond), 8 * Time(Millisecond)}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("step %d at %v, want %v", i, seen[i], want[i])
		}
	}
	if e.Now() != 8*Time(Millisecond) {
		t.Fatalf("final clock %v", e.Now())
	}
}

func TestFIFOOrderAtSameTimestamp(t *testing.T) {
	e := New()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			order = append(order, name)
			p.Hold(Millisecond)
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
	e := New()
	var at Time = -1
	e.Spawn("p", func(p *Proc) {
		e.Schedule(7*Millisecond, func() { at = e.Now() })
		p.Hold(10 * Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 7*Time(Millisecond) {
		t.Fatalf("callback at %v", at)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := New()
	steps := 0
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Hold(Millisecond)
			steps++
		}
	})
	if err := e.RunUntil(10 * Time(Millisecond)); err != nil {
		t.Fatal(err)
	}
	if steps != 10 {
		t.Fatalf("steps = %d, want 10", steps)
	}
	if e.Now() != 10*Time(Millisecond) {
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
	e := New()
	ran := 0
	e.Schedule(20*Millisecond, func() { ran++ })
	if err := e.RunUntil(15 * Time(Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(5 * Time(Millisecond)); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 15*Time(Millisecond) {
		t.Fatalf("clock = %v after RunUntil(15ms) then RunUntil(5ms), want 15ms", e.Now())
	}
	if ran != 0 || e.Pending() != 1 {
		t.Fatalf("ran = %d, pending = %d; want the 20ms event still pending", ran, e.Pending())
	}
}

func TestStopFromProcess(t *testing.T) {
	e := New()
	ran := 0
	e.Spawn("p", func(p *Proc) {
		for {
			p.Hold(Millisecond)
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
	e := New()
	e.Spawn("bad", func(p *Proc) {
		p.Hold(Millisecond)
		panic("boom")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("expected error from panicking process")
	}
}

func TestSpawnAt(t *testing.T) {
	e := New()
	var started Time = -1
	e.SpawnAt(4*Time(Millisecond), "late", func(p *Proc) { started = p.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if started != 4*Time(Millisecond) {
		t.Fatalf("started at %v", started)
	}
}

// Close unwinds a process parked on a mailbox: its deferred calls run and
// it never receives a message.
func TestKillParkedProcess(t *testing.T) {
	e := New()
	mb := NewMailbox[int](e, "mb")
	gotMsg, deferred := false, false
	e.Spawn("victim", func(p *Proc) {
		defer func() { deferred = true }()
		mb.Get(p)
		gotMsg = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if gotMsg || !deferred {
		t.Fatalf("closed parked process: gotMsg=%v deferred=%v, want false, true", gotMsg, deferred)
	}
	if e.Active() != 0 {
		t.Fatalf("active = %d after Close", e.Active())
	}
}

// Close unwinds a process in the middle of a Hold: its deferred calls run
// and the code past the Hold never does.
func TestKillHeldProcess(t *testing.T) {
	e := New()
	finished, deferred := false, false
	e.Spawn("victim", func(p *Proc) {
		defer func() { deferred = true }()
		p.Hold(100 * Millisecond)
		finished = true
	})
	if err := e.RunUntil(Time(Millisecond)); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if finished || !deferred {
		t.Fatalf("closed held process: finished=%v deferred=%v, want false, true", finished, deferred)
	}
	if e.Active() != 0 {
		t.Fatalf("active = %d", e.Active())
	}
}

func TestActiveAndParkedAccounting(t *testing.T) {
	e := New()
	mb := NewMailbox[int](e, "mb")
	e.Spawn("consumer", func(p *Proc) { mb.Get(p) })
	e.Spawn("checker", func(p *Proc) {
		p.Hold(Millisecond)
		if e.Active() != 2 {
			t.Errorf("active = %d, want 2", e.Active())
		}
		if e.Parked() != 1 {
			t.Errorf("parked = %d, want 1", e.Parked())
		}
		mb.Put(1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Active() != 0 || e.Parked() != 0 {
		t.Fatalf("final active=%d parked=%d", e.Active(), e.Parked())
	}
}

func TestTraceSink(t *testing.T) {
	e := New()
	var events []obs.TraceEvent
	e.SetSink(obs.SinkFunc(func(ev obs.TraceEvent) { events = append(events, ev) }))
	if !e.Tracing() {
		t.Fatal("Tracing() = false with a sink attached")
	}
	f := NewFacility(e, "cpu")
	e.Spawn("p", func(p *Proc) {
		f.UsePriority(p, Millisecond, 0)
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
			if ev.Dur != int64(Millisecond) {
				t.Errorf("span dur = %d, want %d", ev.Dur, int64(Millisecond))
			}
		}
	}
	if spans != 1 {
		t.Errorf("facility spans = %d, want 1", spans)
	}
}

func TestNoSinkNoTrace(t *testing.T) {
	e := New()
	if e.Tracing() {
		t.Fatal("Tracing() = true without a sink")
	}
	// Emit without a sink must be a safe no-op.
	e.Emit(obs.TraceEvent{Name: "dropped"})
	e.EmitNow(obs.TraceEvent{Name: "dropped"})
}

func TestNegativeHoldPanics(t *testing.T) {
	e := New()
	e.Spawn("p", func(p *Proc) { p.Hold(-1) })
	if err := e.Run(); err == nil {
		t.Fatal("negative hold should surface as error")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Time {
		e := New()
		f := NewFacility(e, "f")
		mb := NewMailbox[int](e, "mb")
		var log []Time
		for i := 0; i < 5; i++ {
			i := i
			e.Spawn("w", func(p *Proc) {
				p.Hold(Duration(i) * Millisecond)
				f.UsePriority(p, 2*Millisecond, 0)
				mb.Put(i)
				log = append(log, p.Now())
			})
		}
		e.Spawn("c", func(p *Proc) {
			for i := 0; i < 5; i++ {
				mb.Get(p)
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
	e := New()
	steps := 0
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Hold(Millisecond)
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
