package experiments

import (
	"fmt"

	"repro/internal/gamma"
	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ScaleSweep measures how each strategy's throughput grows with the
// machine size — the scalability concern the paper's introduction
// motivates ("the scalability of these systems to hundreds and thousands
// of processors is essential"). For each processor count P the
// multiprogramming level is held at 2P (a constant per-processor load) on
// the low-low mix, so a strategy that localizes queries should scale near
// linearly while one that fans every query out to all P processors pays a
// growing coordination tax.
type ScaleSweep struct {
	Strategies  []string
	Processors  []int
	Correlation Correlation
	Mix         func(card int) workload.Mix
}

// DefaultScaleSweep compares the three paper strategies over 8..64
// processors on the uncorrelated low-low mix.
func DefaultScaleSweep() ScaleSweep {
	return ScaleSweep{
		Strategies:  []string{StrategyMAGIC, StrategyBERD, StrategyRange},
		Processors:  []int{8, 16, 32, 64},
		Correlation: LowCorrelation,
		Mix:         workload.LowLow,
	}
}

// ScalePoint is one measured (strategy, processors) combination.
type ScalePoint struct {
	Strategy   string
	Processors int
	Result     gamma.RunResult
}

// ScaleResult holds a completed sweep.
type ScaleResult struct {
	Sweep  ScaleSweep
	Points []ScalePoint
}

// RunScaleSweep executes the sweep serially: a workers=1 campaign over the
// same job set RunScaleSweepParallel spreads across the pool.
func RunScaleSweep(sweep ScaleSweep, opts Options) (ScaleResult, error) {
	res, _, err := RunScaleSweepParallel(sweep, opts, CampaignOptions{Workers: 1})
	return res, err
}

// RunScaleSweepParallel executes the sweep's (processors, strategy) jobs on
// the harness worker pool. opts.Processors and opts.MPLs are ignored (the
// sweep sets both); the other options scale the workload. The generated
// relation depends only on (cardinality, correlation, seed), so one build
// is shared — read-only — by every machine size; placements are built once
// per (processors, strategy). Points come back in the serial order
// (machine sizes as given, strategies within), byte-identical whatever the
// worker count.
func RunScaleSweepParallel(sweep ScaleSweep, opts Options, copts CampaignOptions) (ScaleResult, harness.Manifest, error) {
	opts = opts.withDefaults()
	out := ScaleResult{Sweep: sweep}

	rels := relationCache{}
	rel := rels.get(opts.Cardinality, sweep.Correlation.window(opts.Cardinality), opts.Seed)
	mix := sweep.Mix(opts.Cardinality)

	var jobs []harness.Job
	for _, procs := range sweep.Processors {
		o := opts
		o.Processors = procs
		o.Config = nil
		cfg := ConfigFor(o)
		for _, name := range sweep.Strategies {
			pl, err := BuildPlacement(name, rel, mix, o)
			if err != nil {
				return out, harness.Manifest{}, fmt.Errorf("scale sweep %s/P=%d: %w", name, procs, err)
			}
			jobs = append(jobs, harness.Job{
				ID:   fmt.Sprintf("scaleout/%s/p%d", name, procs),
				Seed: o.Seed,
				Run: func() (any, error) {
					machine, err := gamma.Build(rel, pl, cfg)
					if err != nil {
						return nil, fmt.Errorf("scale sweep %s/P=%d: %w", name, procs, err)
					}
					defer machine.Close()
					res, err := machine.Run(mix, gamma.RunSpec{
						MPL:            2 * procs,
						WarmupQueries:  o.WarmupQueries,
						MeasureQueries: o.MeasureQueries,
						Seed:           o.Seed,
					})
					if err != nil {
						return nil, fmt.Errorf("scale sweep %s/P=%d: %w", name, procs, err)
					}
					return res, nil
				},
			})
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
	for _, procs := range sweep.Processors {
		for _, name := range sweep.Strategies {
			if v := values[j]; v != nil {
				out.Points = append(out.Points, ScalePoint{
					Strategy: name, Processors: procs, Result: v.(gamma.RunResult),
				})
			}
			j++
		}
	}
	return out, manifest, manifest.Err()
}

// Throughput returns the measured throughput for (strategy, processors).
func (sr ScaleResult) Throughput(strategy string, procs int) (float64, bool) {
	for _, p := range sr.Points {
		if p.Strategy == strategy && p.Processors == procs {
			return p.Result.ThroughputQPS, true
		}
	}
	return 0, false
}

// Speedup reports throughput(P) / throughput(Pmin) for a strategy.
func (sr ScaleResult) Speedup(strategy string, procs int) (float64, bool) {
	base, ok1 := sr.Throughput(strategy, sr.Sweep.Processors[0])
	at, ok2 := sr.Throughput(strategy, procs)
	if !ok1 || !ok2 || base == 0 {
		return 0, false
	}
	return at / base, true
}

// Table renders throughput (and relative speedup) per machine size.
func (sr ScaleResult) Table() *stats.Table {
	headers := []string{"P", "MPL"}
	for _, s := range sr.Sweep.Strategies {
		headers = append(headers, s+" q/s", s+" speedup")
	}
	tb := stats.NewTable("Scale-out: throughput vs machine size (MPL = 2P)", headers...)
	for _, procs := range sr.Sweep.Processors {
		row := []any{procs, 2 * procs}
		for _, s := range sr.Sweep.Strategies {
			tp, _ := sr.Throughput(s, procs)
			sp, _ := sr.Speedup(s, procs)
			row = append(row, fmt.Sprintf("%.1f", tp), fmt.Sprintf("%.2fx", sp))
		}
		tb.AddRow(row...)
	}
	return tb
}
