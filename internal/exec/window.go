package exec

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// WindowSpec describes one run's steady-state measurement window (Section
// 7): the first WarmupQueries completions are the discarded transient, the
// next MeasureQueries are measured.
type WindowSpec struct {
	WarmupQueries  int
	MeasureQueries int
	// MaxSimTime bounds the run in simulated time, from the window's
	// creation, in case completions cannot reach the target.
	MaxSimTime sim.Duration
	// Telemetry, when non-nil, is sampled every window of simulated time by
	// the driver StartSampler starts, and rebased at the warm-up boundary.
	Telemetry *obs.Sampler

	// At the warm-up boundary the window resets every cumulative source in
	// this order: ResetAdmission (the admission shape's own counters), then
	// ResetMachine (the machine's hardware and subsystem counters), then
	// Telemetry's deltas last, so the first measured sample never
	// differences across a reset. Either may be nil.
	ResetAdmission func()
	ResetMachine   func()
	// AfterSample, when non-nil, runs after every sample the driver takes.
	AfterSample func(now sim.Time)
}

// Window counts a run's completions against its WindowSpec. Closed
// terminals and the open front end feed it every completion, so the two run
// shapes differ only in how they admit queries.
type Window struct {
	spec      WindowSpec
	eng       *sim.Engine
	begin     sim.Time
	start     sim.Time
	completed int
	open      bool
	outcomes  Outcomes
}

// NewWindow validates spec and starts its clock at the engine's current
// time. A window without warm-up is open from that instant.
func NewWindow(eng *sim.Engine, spec WindowSpec) (*Window, error) {
	if spec.WarmupQueries < 0 || spec.MeasureQueries <= 0 {
		return nil, fmt.Errorf("exec: bad warmup/measure spec %d/%d",
			spec.WarmupQueries, spec.MeasureQueries)
	}
	if spec.MaxSimTime <= 0 {
		return nil, fmt.Errorf("exec: non-positive MaxSimTime %v", spec.MaxSimTime)
	}
	w := &Window{spec: spec, eng: eng, begin: eng.Now()}
	if spec.WarmupQueries == 0 {
		w.open, w.start = true, w.begin
	}
	return w, nil
}

// Complete counts one finished query and reports whether it falls inside
// the measurement window, the caller's cue to record its statistics. The
// WarmupQueries-th completion opens the window; the last measured one
// stops the engine.
func (w *Window) Complete(o Outcome) bool {
	w.completed++
	if !w.open {
		if w.completed >= w.spec.WarmupQueries {
			w.openNow()
		}
		return false
	}
	w.outcomes.Count(o)
	if w.completed >= w.target() {
		w.eng.Stop()
	}
	return true
}

func (w *Window) openNow() {
	w.open, w.start = true, w.eng.Now()
	if w.spec.ResetAdmission != nil {
		w.spec.ResetAdmission()
	}
	if w.spec.ResetMachine != nil {
		w.spec.ResetMachine()
	}
	w.spec.Telemetry.Rebase(int64(w.start))
}

func (w *Window) target() int { return w.spec.WarmupQueries + w.spec.MeasureQueries }

// StartSampler starts the sampler driver when telemetry is armed: a
// handler whose every event after its first samples every probe and
// runs AfterSample, and whose every event schedules the next one a
// sampling window later. Scheduling order breaks ties between events at
// equal times, so each run shape starts it at a fixed point among its
// own actors.
func (w *Window) StartSampler() {
	ts := w.spec.Telemetry
	if ts == nil {
		return
	}
	eng, after := w.eng, w.spec.AfterSample
	window := sim.Duration(ts.WindowNS())
	var tick func()
	tick = func() {
		if eng.Stopped() {
			return
		}
		ts.Sample(int64(eng.Now()))
		if after != nil {
			after(eng.Now())
		}
		eng.Schedule(window, tick)
	}
	eng.Schedule(0, func() { eng.Schedule(window, tick) })
}

// Run drives the engine until the window closes or MaxSimTime has passed
// since the window's creation, and reports whether the window closed.
func (w *Window) Run() (bool, error) {
	if err := w.eng.RunUntil(w.begin + sim.Time(w.spec.MaxSimTime)); err != nil {
		return false, err
	}
	return w.completed >= w.target(), nil
}

// Opened reports whether the warm-up boundary has passed.
func (w *Window) Opened() bool { return w.open }

// Start is the simulated time the measurement window opened at.
func (w *Window) Start() sim.Time { return w.start }

// Completed counts every completion, warm-up included.
func (w *Window) Completed() int { return w.completed }

// Outcomes tallies the completions inside the window.
func (w *Window) Outcomes() Outcomes { return w.outcomes }
