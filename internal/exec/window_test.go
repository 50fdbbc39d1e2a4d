package exec

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

func TestWindowRejectsBadSpecs(t *testing.T) {
	for _, spec := range []WindowSpec{
		{WarmupQueries: -1, MeasureQueries: 1, MaxSimTime: sim.Second},
		{WarmupQueries: 0, MeasureQueries: 0, MaxSimTime: sim.Second},
		{WarmupQueries: 0, MeasureQueries: 1},
	} {
		if _, err := NewWindow(sim.New(), spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}

// The window opens on the WarmupQueries-th completion, running the resets
// in order (admission, machine, then the sampler's rebase), counts only
// the completions after it, and stops the engine on the last measured one.
func TestWindowBoundary(t *testing.T) {
	eng := sim.New()
	ts := obs.NewSampler(int64(sim.Millisecond), 0)
	var order []string
	ts.Register("probe", obs.SeriesGauge, func() float64 {
		order = append(order, "rebase")
		return 0
	})
	order = nil
	w, err := NewWindow(eng, WindowSpec{
		WarmupQueries:  2,
		MeasureQueries: 3,
		MaxSimTime:     sim.Second,
		Telemetry:      ts,
		ResetAdmission: func() { order = append(order, "admission") },
		ResetMachine:   func() { order = append(order, "machine") },
	})
	if err != nil {
		t.Fatal(err)
	}
	outcomes := []Outcome{OutcomeFailed, OutcomeOK, OutcomeRetried, OutcomeTimedOut, OutcomeOK, OutcomeOK}
	var measured []bool
	simtest.Spawn(eng, "terminal", func(p *simtest.Proc) {
		for _, o := range outcomes {
			if eng.Stopped() {
				return
			}
			p.Hold(sim.Millisecond)
			measured = append(measured, w.Complete(o))
		}
	})
	reached, err := w.Run()
	if err != nil || !reached {
		t.Fatalf("Run = %v, %v; want the target reached", reached, err)
	}
	if want := []bool{false, false, true, true, true}; !reflect.DeepEqual(measured, want) {
		t.Errorf("measured = %v, want %v", measured, want)
	}
	if want := []string{"admission", "machine", "rebase"}; !reflect.DeepEqual(order, want) {
		t.Errorf("boundary order = %v, want %v", order, want)
	}
	if !w.Opened() || w.Start() != sim.Time(2*sim.Millisecond) || w.Completed() != 5 {
		t.Errorf("opened %v at %v after %d completions", w.Opened(), w.Start(), w.Completed())
	}
	if got, want := w.Outcomes(), (Outcomes{OK: 1, Retried: 1, TimedOut: 1}); got != want {
		t.Errorf("outcomes = %+v, want %+v", got, want)
	}
}

// Without warm-up the window is open from its creation, and a target out
// of reach leaves Run at MaxSimTime past the window's start, unreached.
func TestWindowTimeBound(t *testing.T) {
	eng := sim.New()
	w, err := NewWindow(eng, WindowSpec{MeasureQueries: 10, MaxSimTime: 5 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !w.Opened() || w.Start() != 0 {
		t.Fatalf("window without warm-up not open at t=0")
	}
	simtest.Spawn(eng, "terminal", func(p *simtest.Proc) {
		for {
			p.Hold(sim.Millisecond)
			w.Complete(OutcomeOK)
		}
	})
	reached, err := w.Run()
	if err != nil || reached {
		t.Fatalf("Run = %v, %v; want the time bound", reached, err)
	}
	if eng.Now() != sim.Time(5*sim.Millisecond) || w.Outcomes().OK != 5 {
		t.Errorf("stopped at %v with %+v", eng.Now(), w.Outcomes())
	}
}
