package serve

import "repro/internal/sim"

// BurnStats is the SLO burn-rate evaluator's verdict over a run's sampling
// windows: per window it computes the bad fraction (completions that
// missed the SLO or failed, over completions) and flags the window as
// burning when that fraction exceeds the budget. It answers the
// time-domain questions the end-of-run aggregates cannot: when did the
// system first violate its objective, and did it recover before the run
// ended?
type BurnStats struct {
	// WindowNS is the evaluation window (the telemetry sampling window);
	// Budget is the tolerated bad fraction per window.
	WindowNS int64   `json:"window_ns"`
	Budget   float64 `json:"budget"`
	// Windows counts evaluated windows; Violated counts the burning ones.
	Windows  int `json:"windows"`
	Violated int `json:"violated"`
	// MaxBurnRate is the worst per-window bad fraction observed.
	MaxBurnRate float64 `json:"max_burn_rate"`
	// FirstViolation is the end time of the first burning window (0 =
	// never violated). Recovery is the end time of the clean window that
	// ended the last violation streak — 0 when the run never violated or
	// was still burning at the end.
	FirstViolation sim.Time `json:"first_violation_ns"`
	Recovery       sim.Time `json:"recovery_ns"`
}

// DefaultBurnBudget is the per-window bad fraction tolerated before the
// window counts as an SLO violation.
const DefaultBurnBudget = 0.1

// burnEval accumulates BurnStats from per-window tracker deltas. It runs
// on the simulation goroutine (the telemetry driver), so it needs no
// locking.
type burnEval struct {
	budget        float64
	prevCompleted int64
	prevGood      int64
	violating     bool
	stats         BurnStats
}

func newBurnEval(windowNS int64, budget float64) *burnEval {
	if budget <= 0 {
		budget = DefaultBurnBudget
	}
	return &burnEval{
		budget: budget,
		stats:  BurnStats{WindowNS: windowNS, Budget: budget},
	}
}

// observe evaluates the window ending at now against the tracker's
// cumulative counts. An empty window (no completions) is clean: offering
// no evidence of violation, it ends any running violation streak — under
// total overload queries still complete (late), so burn windows keep
// scoring.
func (b *burnEval) observe(now sim.Time, tr *Tracker) {
	dC := tr.completed - b.prevCompleted
	dG := tr.good - b.prevGood
	b.prevCompleted, b.prevGood = tr.completed, tr.good
	if dC < 0 || dG < 0 {
		// The tracker was reset without a rebase; re-primed above, skip.
		return
	}
	b.stats.Windows++
	if dC == 0 {
		b.markClean(now)
		return
	}
	burn := 1 - float64(dG)/float64(dC)
	if burn > b.stats.MaxBurnRate {
		b.stats.MaxBurnRate = burn
	}
	if burn > b.budget {
		b.stats.Violated++
		if b.stats.FirstViolation == 0 {
			b.stats.FirstViolation = now
		}
		b.violating = true
		b.stats.Recovery = 0
		return
	}
	b.markClean(now)
}

func (b *burnEval) markClean(now sim.Time) {
	if b.violating {
		b.violating = false
		b.stats.Recovery = now
	}
}

// rebase discards accumulated verdicts and re-primes the deltas — the
// warm-up boundary hook, in step with Tracker.Reset and Sampler.Rebase.
func (b *burnEval) rebase(tr *Tracker) {
	b.prevCompleted, b.prevGood = tr.completed, tr.good
	b.violating = false
	b.stats = BurnStats{WindowNS: b.stats.WindowNS, Budget: b.budget}
}
