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
	"repro/internal/harness"
	"repro/internal/stats"
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
	Figure   Figure
	Options  Options
	WindowMS float64
	Points   []SharingPoint
}

// RunSharing sweeps the figure's strategies across the MPL sweep, once with
// sharing off and once with the shared-scan manager armed at windowMS
// (<= 0 selects the gamma default window), both under the hot-spot overlay.
// Jobs run on the harness pool exactly like a figure campaign. Fault
// options in opts apply to both runs: batches are keyed by replica role
// and placement epoch, so sharing composes with degraded-mode rerouting.
func RunSharing(fig Figure, windowMS float64, opts Options, copts CampaignOptions) (SharingResult, harness.Manifest, error) {
	opts = opts.withDefaults()
	out := SharingResult{Figure: fig, Options: opts, WindowMS: windowMS}

	rels := relationCache{}
	fb, err := buildFigure(fig, rels, opts)
	if err != nil {
		return out, harness.Manifest{}, err
	}
	hot := fb.mix.WithHotSpot(SharingHotProb, SharingHotFrac)

	offCfg := ConfigFor(opts)
	// Sharing targets Table 2's disk-bound regime: with the default pool
	// sized to keep the index resident, the hot set's data pages largely
	// survive in memory between queries and there is little disk work to
	// share. A third of the default pool forces the re-read traffic the
	// manager exists to deduplicate. Both modes run with the same pool, so
	// the off column is still the like-for-like baseline.
	offCfg.BufferPages = (offCfg.BufferPages + 2) / 3
	onOpts := opts
	onOpts.ArmSharing(windowMS)
	onCfg := ConfigFor(onOpts)
	onCfg.BufferPages = offCfg.BufferPages

	var jobs []harness.Job
	for si, name := range fb.fig.Strategies {
		for _, share := range []bool{false, true} {
			cfg, tag := offCfg, "off"
			if share {
				cfg, tag = onCfg, "on"
			}
			for _, mpl := range opts.MPLs {
				name, mpl, cfg, tag, pl := name, mpl, cfg, tag, fb.placements[si]
				jobs = append(jobs, harness.Job{
					ID:   fmt.Sprintf("sharing/%s/%s/mpl%d", name, tag, mpl),
					Seed: opts.Seed,
					Run: func() (any, error) {
						machine, err := gamma.Build(fb.rel, pl, cfg)
						if err != nil {
							return nil, fmt.Errorf("sharing %s/%s: %w", name, tag, err)
						}
						defer machine.Close()
						res, err := machine.Run(hot, gamma.RunSpec{
							MPL:            mpl,
							WarmupQueries:  opts.WarmupQueries,
							MeasureQueries: opts.MeasureQueries,
							Seed:           opts.Seed,
						})
						if err != nil {
							return nil, fmt.Errorf("sharing %s/%s MPL %d: %w", name, tag, mpl, err)
						}
						return res, nil
					},
				})
			}
		}
	}

	values, manifest, err := harness.Execute(jobs, harness.Options{
		Workers:     copts.Workers,
		JobTimeout:  copts.JobTimeout,
		Progress:    copts.Progress,
		Label:       copts.Label,
		IsTransient: copts.IsTransient,
	})
	if err != nil {
		return out, manifest, err
	}

	j := 0
	for _, name := range fb.fig.Strategies {
		offAt := j
		onAt := j + len(opts.MPLs)
		for mi, mpl := range opts.MPLs {
			off, on := values[offAt+mi], values[onAt+mi]
			if off == nil || on == nil {
				continue
			}
			out.Points = append(out.Points, SharingPoint{
				Strategy: name, MPL: mpl,
				Off: off.(gamma.RunResult), On: on.(gamma.RunResult),
			})
		}
		j += 2 * len(opts.MPLs)
	}
	return out, manifest, manifest.Err()
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
