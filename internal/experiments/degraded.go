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

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/gamma"
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
// actually broken, the baseline overhead measurement. k must lie in
// [0, p]: a machine has only p disks to fail.
func KillSpec(k, p int) (*fault.Spec, error) {
	if k < 0 || k > p {
		return nil, fmt.Errorf("experiments: cannot fail %d disks of a %d-node machine", k, p)
	}
	s := &fault.Spec{}
	for i := 0; i < k; i++ {
		s.Events = append(s.Events, fault.Event{
			At: sim.Millisecond, Kind: fault.DiskFail, Node: i * p / k,
		})
	}
	return s, nil
}

// DegradedScenario sweeps the figures' strategies across failed-disk
// counts ks (nil defaults to {0, 1, 2}) with chained replicas on. Each
// variant's disks fail on top of whatever opts.Faults already injects.
func DegradedScenario(figs []Figure, ks []int, opts Options) (Scenario, error) {
	opts = opts.withDefaults()
	opts.ChainedReplicas = true
	if len(ks) == 0 {
		ks = []int{0, 1, 2}
	}
	sc := Scenario{Figures: figs, Options: opts}
	for _, k := range ks {
		spec, err := KillSpec(k, opts.Processors)
		if err != nil {
			return Scenario{}, err
		}
		if base := opts.Faults; base != nil {
			merged := *base
			merged.Events = append(append([]fault.Event(nil), base.Events...), spec.Events...)
			spec = &merged
		}
		v := opts
		v.Faults = spec
		sc.Sweep = append(sc.Sweep, Variant{Tag: fmt.Sprintf("k%d", k), Level: k, Options: v})
	}
	return sc, nil
}

// Degraded reports each figure's degraded-mode sweep.
func (r ScenarioResult) Degraded() []DegradedResult {
	var out []DegradedResult
	for _, f := range r.Figures {
		dr := DegradedResult{Figure: f.Figure, Options: r.Scenario.Options}
		for _, v := range r.Scenario.Sweep {
			dr.Ks = append(dr.Ks, v.Level)
		}
		for _, p := range f.Points {
			dr.Points = append(dr.Points, DegradedPoint{
				Strategy: p.Strategy, K: dr.Ks[p.Variant], MPL: p.MPL, Result: p.Result,
			})
		}
		out = append(out, dr)
	}
	return out
}

// Outcomes sums the outcome tallies across every measured point.
func (dr DegradedResult) Outcomes() exec.Outcomes {
	var o exec.Outcomes
	for _, p := range dr.Points {
		o.Add(p.Result.Outcomes)
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
