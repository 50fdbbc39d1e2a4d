package gamma

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TelemetrySpec arms windowed time-series sampling on the machine: every
// reset builds a fresh obs.Sampler carrying per-node windowed disk/CPU
// utilization, instantaneous queue depths, per-node operator rates, and
// machine-wide disk/CPU skew over the same windows. Run and RunServe hand
// it to their exec.Window, whose one driver samples it on sim-time window
// boundaries and rebases it at the warm-up boundary; RunServe's front end
// first adds its own probes and scores the SLO burn rate after each sample.
type TelemetrySpec struct {
	// Window is the sampling window in simulated time. Default 250ms.
	Window sim.Duration
	// Capacity bounds each series ring in windows (oldest windows are
	// overwritten beyond it). Default obs.DefaultCapacity.
	Capacity int
	// BurnBudget is the per-window bad fraction the serving SLO burn
	// evaluator tolerates. Default serve.DefaultBurnBudget.
	BurnBudget float64
}

// window resolves the sampling window.
func (t *TelemetrySpec) window() sim.Duration {
	if t == nil || t.Window <= 0 {
		return sim.Duration(obs.DefaultWindowNS)
	}
	return t.Window
}

// validate rejects nonsensical telemetry parameters (nil is valid:
// telemetry off; zero values defer to defaults).
func (t *TelemetrySpec) validate() error {
	if t == nil {
		return nil
	}
	if t.Window < 0 {
		return fmt.Errorf("gamma: negative telemetry window %v", t.Window)
	}
	if t.Capacity < 0 {
		return fmt.Errorf("gamma: negative telemetry capacity %d", t.Capacity)
	}
	if t.BurnBudget < 0 || t.BurnBudget >= 1 {
		return fmt.Errorf("gamma: burn budget %v outside [0,1)", t.BurnBudget)
	}
	return nil
}

// newMachineSampler builds the sampler and registers the machine-side
// probes. Windowed utilizations are rate series over cumulative
// busy-seconds — the sampler differences consecutive readings, so each
// window reports the utilization of exactly that window.
func newMachineSampler(spec *TelemetrySpec, nodes []*exec.Node) *obs.Sampler {
	s := obs.NewSampler(int64(spec.window()), spec.Capacity)
	for _, n := range nodes {
		n := n
		s.Register(fmt.Sprintf("node%d.disk.util", n.ID), obs.SeriesRate, n.Disk.BusySeconds)
		s.Register(fmt.Sprintf("node%d.cpu.util", n.ID), obs.SeriesRate, n.CPU.BusySeconds)
		s.Register(fmt.Sprintf("node%d.disk.queue", n.ID), obs.SeriesGauge,
			func() float64 { return float64(n.Disk.QueueLen()) })
		s.Register(fmt.Sprintf("node%d.cpu.queue", n.ID), obs.SeriesGauge,
			func() float64 { return float64(n.CPU.QueueLen()) })
		s.Register(fmt.Sprintf("node%d.ops_qps", n.ID), obs.SeriesRate,
			func() float64 { return float64(n.OpsExecuted) })
	}
	s.Register("disk.skew", obs.SeriesGauge,
		skewProbe(nodes, func(n *exec.Node) float64 { return n.Disk.BusySeconds() }))
	s.Register("cpu.skew", obs.SeriesGauge,
		skewProbe(nodes, func(n *exec.Node) float64 { return n.CPU.BusySeconds() }))
	return s
}

// skewProbe returns a gauge probe computing max/mean over the per-node
// deltas of a cumulative reading since the probe's previous invocation —
// the windowed analogue of skewRatio (1.0 balanced, higher = skewed, 0
// when the window saw no activity). The closure re-primes itself whenever
// it runs, so a Rebase (which invokes every probe) realigns it with a
// stats reset.
func skewProbe(nodes []*exec.Node, read func(*exec.Node) float64) obs.Probe {
	prev := make([]float64, len(nodes))
	for i, n := range nodes {
		prev[i] = read(n)
	}
	return func() float64 {
		var max, sum float64
		neg := false
		for i, n := range nodes {
			v := read(n)
			d := v - prev[i]
			prev[i] = v
			if d < 0 {
				// Stats reset without a rebase: this window's deltas are
				// meaningless, report no skew.
				neg = true
				continue
			}
			sum += d
			if d > max {
				max = d
			}
		}
		if neg || sum <= 0 {
			return 0
		}
		return max / (sum / float64(len(nodes)))
	}
}
