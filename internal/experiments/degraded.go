package experiments

// Degraded-mode campaign: how does each declustering strategy hold up when
// k of the machine's disks fail-stop early in the run? Every machine runs
// with chained replicas and the scheduler's fault handling armed, so
// queries that would have needed a dead disk reroute to the chain
// successor; the interesting output is the throughput each strategy
// retains and the outcome tally (ok / retried / timed-out / failed) behind
// it.

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/gamma"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/stats"
)

// DegradedPoint is one measured (strategy, failed-disk count, MPL) cell.
type DegradedPoint struct {
	Strategy string
	K        int // disks fail-stopped at the start of the run
	MPL      int
	Result   gamma.RunResult
}

// DegradedResult holds a completed degraded-mode campaign.
type DegradedResult struct {
	Figure  Figure
	Options Options
	Ks      []int
	Points  []DegradedPoint
}

// KillSpec builds the fault spec that fail-stops k disks spread evenly over
// a p-node machine, all shortly after the run starts (1ms in, so placement
// and routing are warm but the measurement window sees the degraded
// machine). k = 0 yields an empty spec: degraded scheduling with nothing
// actually broken, the baseline overhead measurement.
func KillSpec(k, p int) *fault.Spec {
	s := &fault.Spec{}
	for i := 0; i < k && i < p; i++ {
		s.Events = append(s.Events, fault.Event{
			At: sim.Millisecond, Kind: fault.DiskFail, Node: i * p / k,
		})
	}
	return s
}

// RunDegraded sweeps the figure's strategies across failed-disk counts ks
// (nil defaults to {0, 1, 2}) with chained replicas on. Jobs run on the
// harness pool exactly like a figure campaign; per-job fault-event counts
// land in the manifest.
func RunDegraded(fig Figure, ks []int, opts Options, copts CampaignOptions) (DegradedResult, harness.Manifest, error) {
	opts = opts.withDefaults()
	opts.ChainedReplicas = true
	if len(ks) == 0 {
		ks = []int{0, 1, 2}
	}
	out := DegradedResult{Figure: fig, Options: opts, Ks: ks}

	rels := relationCache{}
	fb, err := buildFigure(fig, rels, opts)
	if err != nil {
		return out, harness.Manifest{}, err
	}

	var jobs []harness.Job
	for si, name := range fb.fig.Strategies {
		for _, k := range ks {
			kOpts := opts
			kOpts.Faults = KillSpec(k, opts.Processors)
			cfg := ConfigFor(kOpts)
			for _, mpl := range opts.MPLs {
				name, k, mpl, pl := name, k, mpl, fb.placements[si]
				jobs = append(jobs, harness.Job{
					ID:   fmt.Sprintf("degraded/%s/k%d/mpl%d", name, k, mpl),
					Seed: opts.Seed,
					Run: func() (any, error) {
						machine, err := gamma.Build(fb.rel, pl, cfg)
						if err != nil {
							return nil, fmt.Errorf("degraded %s/k%d: %w", name, k, err)
						}
						defer machine.Close()
						res, err := machine.Run(fb.mix, gamma.RunSpec{
							MPL:            mpl,
							WarmupQueries:  opts.WarmupQueries,
							MeasureQueries: opts.MeasureQueries,
							Seed:           opts.Seed,
						})
						if err != nil {
							return nil, fmt.Errorf("degraded %s/k%d MPL %d: %w", name, k, mpl, err)
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
		for _, k := range ks {
			for _, mpl := range opts.MPLs {
				if v := values[j]; v != nil {
					res := v.(gamma.RunResult)
					manifest.Reports[j].FaultEvents = len(res.FaultLog)
					out.Points = append(out.Points, DegradedPoint{
						Strategy: name, K: k, MPL: mpl, Result: res,
					})
				}
				j++
			}
		}
	}
	return out, manifest, manifest.Err()
}

// Outcomes sums the outcome tallies across every measured point.
func (dr DegradedResult) Outcomes() gamma.Outcomes {
	var o gamma.Outcomes
	for _, p := range dr.Points {
		o.OK += p.Result.Outcomes.OK
		o.Retried += p.Result.Outcomes.Retried
		o.TimedOut += p.Result.Outcomes.TimedOut
		o.Failed += p.Result.Outcomes.Failed
	}
	return o
}

// Table renders the campaign: one row per (strategy, k, MPL) with the
// retained throughput and the outcome breakdown.
func (dr DegradedResult) Table() *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Degraded mode (%s, chained replicas): throughput under k failed disks", dr.Figure.ID),
		"strategy", "k", "MPL", "q/s", "resp ms", "ok", "retried", "timed out", "failed", "op retries")
	for _, p := range dr.Points {
		r := p.Result
		tb.AddRow(p.Strategy, p.K, p.MPL,
			fmt.Sprintf("%.2f", r.ThroughputQPS),
			fmt.Sprintf("%.1f", r.MeanResponseMS),
			r.Outcomes.OK, r.Outcomes.Retried, r.Outcomes.TimedOut, r.Outcomes.Failed,
			r.RetriesTotal)
	}
	return tb
}
