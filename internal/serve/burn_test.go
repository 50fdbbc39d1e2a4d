package serve

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

func burnTracker() *Tracker { return NewTracker(DefaultTenants(1), 50) }

const sec = sim.Time(sim.Second) // sim.Time literal for window end instants

func observeWindow(b *burnEval, tr *Tracker, now sim.Time, completed, good int64) {
	tr.completed += completed
	tr.good += good
	b.observe(now, tr)
}

func TestBurnEvalViolationStreak(t *testing.T) {
	tr := burnTracker()
	b := newBurnEval(int64(sim.Second), 0.1)

	observeWindow(b, tr, 1*sec, 10, 9)  // burn 0.1 == budget: clean
	observeWindow(b, tr, 2*sec, 10, 5)  // burn 0.5: first violation
	observeWindow(b, tr, 3*sec, 10, 4)  // burn 0.6: streak continues
	observeWindow(b, tr, 4*sec, 10, 10) // clean: recovery

	s := b.stats
	if s.Windows != 4 || s.Violated != 2 {
		t.Fatalf("windows=%d violated=%d, want 4 and 2", s.Windows, s.Violated)
	}
	if s.FirstViolation != 2*sec {
		t.Errorf("FirstViolation = %v, want 2s", s.FirstViolation)
	}
	if s.Recovery != 4*sec {
		t.Errorf("Recovery = %v, want 4s", s.Recovery)
	}
	if s.MaxBurnRate != 0.6 {
		t.Errorf("MaxBurnRate = %g, want 0.6", s.MaxBurnRate)
	}
}

// An empty window offers no evidence of violation: it counts as evaluated,
// stays clean, and ends a running violation streak.
func TestBurnEvalEmptyWindowIsClean(t *testing.T) {
	tr := burnTracker()
	b := newBurnEval(int64(sim.Second), 0.1)
	observeWindow(b, tr, 1*sec, 10, 0) // violating
	observeWindow(b, tr, 2*sec, 0, 0)  // empty: clean, recovers
	s := b.stats
	if s.Windows != 2 || s.Violated != 1 {
		t.Fatalf("windows=%d violated=%d, want 2 and 1", s.Windows, s.Violated)
	}
	if s.Recovery != 2*sec {
		t.Errorf("empty window did not end the streak: Recovery = %v", s.Recovery)
	}
}

// Re-violating after a recovery clears the recovery stamp: Recovery only
// reports the clean window that ended the LAST streak.
func TestBurnEvalReviolationClearsRecovery(t *testing.T) {
	tr := burnTracker()
	b := newBurnEval(int64(sim.Second), 0.1)
	observeWindow(b, tr, 1*sec, 10, 0)
	observeWindow(b, tr, 2*sec, 10, 10)
	if b.stats.Recovery != 2*sec {
		t.Fatalf("Recovery = %v, want 2s", b.stats.Recovery)
	}
	observeWindow(b, tr, 3*sec, 10, 0) // still burning at end of run
	s := b.stats
	if s.Recovery != 0 {
		t.Errorf("Recovery = %v after re-violation, want 0 (never recovered)", s.Recovery)
	}
	if s.FirstViolation != 1*sec {
		t.Errorf("FirstViolation = %v, want the original 1s", s.FirstViolation)
	}
}

// A tracker reset without a rebase shows up as a negative delta: the window
// is skipped (not scored) and the deltas re-prime.
func TestBurnEvalNegativeDeltaReprimes(t *testing.T) {
	tr := burnTracker()
	b := newBurnEval(int64(sim.Second), 0.1)
	observeWindow(b, tr, 1*sec, 10, 10)
	tr.completed, tr.good = 2, 2 // reset underneath
	b.observe(2*sec, tr)
	if b.stats.Windows != 1 {
		t.Fatalf("negative-delta window was scored: windows=%d", b.stats.Windows)
	}
	observeWindow(b, tr, 3*sec, 10, 10)
	if b.stats.Windows != 2 || b.stats.Violated != 0 {
		t.Errorf("post-reprime window wrong: %+v", b.stats)
	}
}

func TestBurnEvalRebase(t *testing.T) {
	tr := burnTracker()
	b := newBurnEval(int64(sim.Second), 0.25)
	observeWindow(b, tr, 1*sec, 10, 0)
	b.rebase(tr)
	s := b.stats
	if s.Windows != 0 || s.Violated != 0 || s.FirstViolation != 0 || s.MaxBurnRate != 0 {
		t.Fatalf("rebase did not clear verdicts: %+v", s)
	}
	if s.WindowNS != int64(sim.Second) || s.Budget != 0.25 {
		t.Fatalf("rebase lost configuration: %+v", s)
	}
	// Deltas re-primed: the next window scores only post-rebase completions.
	observeWindow(b, tr, 2*sec, 4, 4)
	if b.stats.Windows != 1 || b.stats.Violated != 0 {
		t.Errorf("post-rebase window wrong: %+v", b.stats)
	}
}

func TestBurnEvalDefaultBudget(t *testing.T) {
	if b := newBurnEval(1, 0); b.budget != DefaultBurnBudget {
		t.Errorf("budget = %g, want default %g", b.budget, DefaultBurnBudget)
	}
}

// An overloaded run with a tight SLO must stamp a first violation into the
// result through the real telemetry driver.
func TestRunBurnStatsUnderOverload(t *testing.T) {
	cfg := testConfig(3200)
	cfg.SLOms = 1 // queue wait alone blows the objective
	win := testWindow()
	win.Telemetry = obs.NewSampler(int64(250*sim.Millisecond), obs.DefaultCapacity)
	res := runServe(t, 1, cfg, win, &fakeBackend{service: sim.Milliseconds(5)})
	if res.Burn == nil {
		t.Fatal("telemetry armed but Burn is nil")
	}
	if res.Burn.Violated == 0 || res.Burn.FirstViolation == 0 {
		t.Fatalf("overload with a 1ms SLO must burn: %+v", res.Burn)
	}
	if res.Burn.MaxBurnRate <= res.Burn.Budget {
		t.Errorf("MaxBurnRate %g within budget %g under overload",
			res.Burn.MaxBurnRate, res.Burn.Budget)
	}
}

// Edge case: offered load so low that nothing is admitted before the time
// bound. Every rate must come back zero, not NaN, and the burn windows all
// score clean.
func TestRunZeroAdmittedQueries(t *testing.T) {
	cfg := testConfig(0.001) // one arrival per ~1000s, bound at 2s
	win := testWindow()
	win.MaxSimTime = 2 * sim.Second
	win.Telemetry = obs.NewSampler(int64(250*sim.Millisecond), obs.DefaultCapacity)
	res := runServe(t, 1, cfg, win, &fakeBackend{service: sim.Milliseconds(5)})

	if !res.HitMaxSimTime || res.Warmed {
		t.Fatalf("expected an unwarmed time-bounded run: %+v", res)
	}
	if res.SLO.Admitted != 0 || res.SLO.Completed != 0 {
		t.Fatalf("expected zero admissions: %+v", res.SLO)
	}
	for name, v := range map[string]float64{
		"CompletedQPS": res.CompletedQPS(),
		"GoodputQPS":   res.GoodputQPS(),
		"ShedRate":     res.SLO.ShedRate(),
	} {
		if v != 0 { // NaN fails this comparison too
			t.Errorf("%s = %g with zero admitted queries, want 0", name, v)
		}
	}
	if res.Burn == nil || res.Burn.Windows == 0 {
		t.Fatalf("burn evaluator saw no windows: %+v", res.Burn)
	}
	if res.Burn.Violated != 0 || res.Burn.FirstViolation != 0 {
		t.Errorf("empty windows scored as violations: %+v", res.Burn)
	}
}

// Edge case: the warm-up target exceeds what the run can complete before
// MaxSimTime. The result must report Warmed=false with an empty measurement
// window rather than leaking transient statistics.
func TestRunWarmupLongerThanRun(t *testing.T) {
	cfg := testConfig(200)
	win := testWindow()
	win.WarmupQueries = 1 << 30
	win.MaxSimTime = 2 * sim.Second
	res := runServe(t, 1, cfg, win, &fakeBackend{service: sim.Milliseconds(5)})
	if res.Warmed || !res.HitMaxSimTime {
		t.Fatalf("expected an unwarmed time-bounded run: %+v", res)
	}
	if res.MeasuredStart != res.MeasuredEnd {
		t.Fatalf("unwarmed run has a non-empty window: [%v, %v]",
			res.MeasuredStart, res.MeasuredEnd)
	}
	if res.ElapsedSeconds() != 0 || res.CompletedQPS() != 0 || res.GoodputQPS() != 0 {
		t.Errorf("rates over an empty window: %g qps, %g goodput",
			res.CompletedQPS(), res.GoodputQPS())
	}
}

// Edge case: a single tenant with weight zero. Smooth WRR normalizes the
// degenerate weight to 1, so dispatch proceeds and every completion lands on
// that tenant.
func TestRunSingleTenantZeroWeight(t *testing.T) {
	cfg := testConfig(200)
	cfg.Tenants = []Tenant{{Name: "solo", Weight: 0}}
	res := runServe(t, 1, cfg, testWindow(), &fakeBackend{service: sim.Milliseconds(5)})
	if !res.Warmed || res.HitMaxSimTime {
		t.Fatalf("run did not complete normally: %+v", res)
	}
	if len(res.SLO.Tenants) != 1 || res.SLO.Tenants[0].Name != "solo" {
		t.Fatalf("tenant stats = %+v", res.SLO.Tenants)
	}
	if got := res.SLO.Tenants[0].Completed; got != res.SLO.Completed || got == 0 {
		t.Errorf("solo tenant completed %d of %d", got, res.SLO.Completed)
	}
}
