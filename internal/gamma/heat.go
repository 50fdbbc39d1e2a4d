package gamma

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// HeatSpec arms fragment-granularity heat accounting on the machine:
// every reset builds a fresh obs.HeatMap and attaches one accumulator per
// physical fragment (primary, chained-replica backup, auxiliary trees),
// which the execution layer increments allocation-free on every access.
// Run/RunServe reset the map at the warm-up boundary and snapshot it into
// the result, including the HotFragments report. When Telemetry is also
// armed, the sampler additionally carries per-fragment exponentially
// decayed heat series and windowed concentration gauges with
// fragment/node/strategy labels for /metrics.
type HeatSpec struct {
	// TopK bounds the HotFragments report and the top-K share index.
	// Default obs.DefaultHeatTopK (5).
	TopK int
}

// topK resolves the hot-fragment report size.
func (h *HeatSpec) topK() int {
	if h == nil || h.TopK <= 0 {
		return obs.DefaultHeatTopK
	}
	return h.TopK
}

// DefaultHeatDecay is the per-window retention of the decayed-heat
// telemetry series: each window's heat is DefaultHeatDecay*previous +
// pages read this window.
const DefaultHeatDecay = 0.8

// validate rejects nonsensical heat parameters (nil is valid: heat off;
// zero values defer to defaults).
func (h *HeatSpec) validate() error {
	if h == nil {
		return nil
	}
	if h.TopK < 0 {
		return fmt.Errorf("gamma: negative heat top-k %d", h.TopK)
	}
	return nil
}

// registerHeatSeries adds the heat time-series to the machine sampler:
// one decayed-heat gauge per fragment (labelled with fragment, node and
// strategy so /metrics exposes dimensioned heat) plus machine-level
// windowed concentration gauges over the same decayed values. Like
// skewProbe, each closure re-primes itself from the cumulative counters
// whenever it runs, so a Rebase at the warm-up boundary (which invokes
// every probe after the heat map was reset) realigns and re-zeroes it.
func registerHeatSeries(s *obs.Sampler, hm *obs.HeatMap, spec *HeatSpec, strategy string) {
	frags := hm.Frags()
	for _, fh := range frags {
		fh := fh
		id := fh.ID()
		name := fmt.Sprintf("frag.%s.node%d.heat", id.Label(), id.Node)
		labels := fmt.Sprintf(`fragment=%q,node="%d",strategy=%q`, id.Label(), id.Node, strategy)
		var prev, heat float64
		s.RegisterLabeled(name, labels, obs.SeriesGauge, func() float64 {
			v := float64(fh.Pages())
			d := v - prev
			prev = v
			if d < 0 { // counters were reset: start the decay fresh
				d, heat = 0, 0
			}
			heat = DefaultHeatDecay*heat + d
			return heat
		})
	}
	k := spec.topK()
	s.RegisterLabeled("frag.heat.topk_share", fmt.Sprintf(`k="%d",strategy=%q`, k, strategy),
		obs.SeriesGauge, heatSharesProbe(frags, func(shares []float64) float64 {
			sort.Sort(sort.Reverse(sort.Float64Slice(shares)))
			n := k
			if n > len(shares) {
				n = len(shares)
			}
			var top float64
			for _, sh := range shares[:n] {
				top += sh
			}
			return top
		}))
	s.RegisterLabeled("frag.heat.hhi", fmt.Sprintf("strategy=%q", strategy),
		obs.SeriesGauge, heatSharesProbe(frags, func(shares []float64) float64 {
			var hhi float64
			for _, sh := range shares {
				hhi += sh * sh
			}
			return hhi
		}))
}

// heatSharesProbe builds a gauge probe that maintains its own decayed
// per-fragment heat vector (independent closure state, so probes need no
// sampling-order coupling) and reduces the share distribution with f.
// Reports 0 while no fragment has any decayed heat.
func heatSharesProbe(frags []*obs.FragHeat, f func(shares []float64) float64) obs.Probe {
	prev := make([]float64, len(frags))
	heat := make([]float64, len(frags))
	shares := make([]float64, len(frags))
	return func() float64 {
		var total float64
		for i, fh := range frags {
			v := float64(fh.Pages())
			d := v - prev[i]
			prev[i] = v
			if d < 0 {
				d, heat[i] = 0, 0
			}
			heat[i] = DefaultHeatDecay*heat[i] + d
			total += heat[i]
		}
		if total <= 0 || len(frags) == 0 {
			return 0
		}
		for i := range heat {
			shares[i] = heat[i] / total
		}
		return f(shares)
	}
}
