package experiments

// Shared-scan campaign: how much disk work does predicate-grouped batching
// save each declustering strategy? Every (strategy, MPL) point runs twice —
// sharing off, then sharing on — over the same hot-spot workload: the off
// run is the baseline (and stays byte-identical to a sharing-free build),
// the on run batches overlapping selections into shared disk passes. The
// interesting output is the per-query disk-read saving and the batching
// shape (ops/batch, pages deduped) behind it.

import (
	"fmt"

	"repro/internal/gamma"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Hot-spot overlay for the sharing campaign: SharingHotProb of the queries
// target the first SharingHotFrac of the attribute domain. Without the
// overlay the paper's uniform mixes rarely overlap inside a batching
// window; with it the campaign measures the regime sharing is for.
const (
	SharingHotProb = 0.8
	SharingHotFrac = 0.05
)

// SharingPoint is one measured (strategy, MPL) cell: the same workload with
// the shared-scan manager off and on.
type SharingPoint struct {
	Strategy string
	MPL      int
	Off      gamma.RunResult
	On       gamma.RunResult
}

// SavedFrac is the fraction of per-query disk reads sharing eliminated.
func (p SharingPoint) SavedFrac() float64 {
	if p.Off.DiskReadsPerQry <= 0 {
		return 0
	}
	return 1 - p.On.DiskReadsPerQry/p.Off.DiskReadsPerQry
}

// SharingResult holds a completed shared-scan campaign.
type SharingResult struct {
	Figure  Figure
	Options Options
	Points  []SharingPoint
}

// SharingScenario runs the figures' strategies across the MPL sweep, once
// with sharing off and once with the shared-scan manager armed at windowMS
// (<= 0 selects the gamma default window), both under the hot-spot overlay.
// Placements are planned from each figure's own mix. Fault options in opts
// apply to both runs: batches are keyed by replica role and placement
// epoch, so sharing composes with degraded-mode rerouting.
func SharingScenario(figs []Figure, windowMS float64, opts Options) Scenario {
	opts = opts.withDefaults()
	// Sharing targets Table 2's disk-bound regime: with the default pool
	// sized to keep the index resident, the hot set's data pages largely
	// survive in memory between queries and there is little disk work to
	// share. A third of the default pool forces the re-read traffic the
	// manager exists to deduplicate. Both modes run with the same pool, so
	// the off column is still the like-for-like baseline.
	cfg := ConfigFor(opts)
	cfg.BufferPages = (cfg.BufferPages + 2) / 3
	off := opts
	off.Config = &cfg
	on := off
	on.ArmSharing(windowMS)
	return Scenario{
		Figures: figs,
		Options: opts,
		Sweep:   []Variant{{Tag: "off", Options: off}, {Tag: "on", Level: 1, Options: on}},
		Mix: func(m workload.Mix) workload.Mix {
			return m.WithHotSpot(SharingHotProb, SharingHotFrac)
		},
	}
}

// Sharing reports each figure's off/on pairs; a pair missing either run
// (a failed job) is left out.
func (r ScenarioResult) Sharing() []SharingResult {
	var out []SharingResult
	for _, f := range r.Figures {
		sr := SharingResult{Figure: f.Figure, Options: r.Scenario.Options}
		off := map[string]gamma.RunResult{}
		for _, p := range f.Points {
			key := fmt.Sprintf("%s/%d", p.Strategy, p.MPL)
			if p.Variant == 0 {
				off[key] = p.Result
			} else if o, ok := off[key]; ok {
				sr.Points = append(sr.Points, SharingPoint{Strategy: p.Strategy, MPL: p.MPL, Off: o, On: p.Result})
			}
		}
		out = append(out, sr)
	}
	return out
}

// MaxSaved returns the campaign's best per-query disk-read saving and the
// point that achieved it (zero value when nothing was measured).
func (sr SharingResult) MaxSaved() (float64, SharingPoint) {
	var best SharingPoint
	saved := -1.0
	for _, p := range sr.Points {
		if s := p.SavedFrac(); s > saved {
			saved, best = s, p
		}
	}
	if saved < 0 {
		return 0, best
	}
	return saved, best
}

// Table renders the campaign: one row per (strategy, MPL) with throughput
// and disk reads per query under both modes, the saving, and the batching
// shape.
func (sr SharingResult) Table() *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Shared scans (%s, hot spot %.0f%%/%.0f%%): disk reads per query, sharing off vs on",
			sr.Figure.ID, 100*SharingHotProb, 100*SharingHotFrac),
		"strategy", "MPL", "q/s off", "q/s on", "reads/qry off", "reads/qry on",
		"saved", "ops/batch", "pages deduped")
	for _, p := range sr.Points {
		opsPerBatch, deduped := "-", "-"
		if s := p.On.Sharing; s != nil {
			opsPerBatch = fmt.Sprintf("%.2f", s.MeanBatchSize())
			deduped = fmt.Sprintf("%d", s.PagesSaved())
		}
		tb.AddRow(p.Strategy, p.MPL,
			fmt.Sprintf("%.2f", p.Off.ThroughputQPS),
			fmt.Sprintf("%.2f", p.On.ThroughputQPS),
			fmt.Sprintf("%.1f", p.Off.DiskReadsPerQry),
			fmt.Sprintf("%.1f", p.On.DiskReadsPerQry),
			fmt.Sprintf("%.1f%%", 100*p.SavedFrac()),
			opsPerBatch, deduped)
	}
	return tb
}

// Summary emits one greppable line per point (CI smoke-tests these).
func (sr SharingResult) Summary() []string {
	var out []string
	for _, p := range sr.Points {
		out = append(out, fmt.Sprintf(
			"sharing fig%s/%s mpl=%d: reads/qry %.1f -> %.1f (%.1f%% saved)",
			sr.Figure.ID, p.Strategy, p.MPL,
			p.Off.DiskReadsPerQry, p.On.DiskReadsPerQry, 100*p.SavedFrac()))
	}
	return out
}
