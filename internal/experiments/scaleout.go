package experiments

import (
	"fmt"

	"repro/internal/gamma"
	"repro/internal/stats"
)

// ScaleOutScenario measures how each strategy's throughput grows with the
// machine size — the scalability concern the paper's introduction
// motivates ("the scalability of these systems to hundreds and thousands
// of processors is essential"). The sweep is the processor counts procs
// (nil: 8, 16, 32 and 64), each at a multiprogramming level of 2P (a
// constant per-processor load) on the figure's mix, so a strategy that
// localizes queries should scale near linearly while one that fans every
// query out to all P processors pays a growing coordination tax. A
// Config override in opts is dropped: the buffer pool is sized per
// machine. The relation is shared by every machine size.
func ScaleOutScenario(fig Figure, procs []int, opts Options) Scenario {
	opts = opts.withDefaults()
	opts.Config = nil
	if len(procs) == 0 {
		procs = []int{8, 16, 32, 64}
	}
	sc := Scenario{Figures: []Figure{fig}, Options: opts}
	for _, p := range procs {
		v := opts
		v.Processors = p
		v.MPLs = []int{2 * p}
		sc.Sweep = append(sc.Sweep, Variant{Tag: fmt.Sprintf("p%d", p), Level: p, Options: v})
	}
	return sc
}

// ScalePoint is one measured (strategy, processors) combination.
type ScalePoint struct {
	Strategy   string
	Processors int
	Result     gamma.RunResult
}

// ScaleResult holds a completed scale-out sweep.
type ScaleResult struct {
	Strategies []string
	Processors []int
	Points     []ScalePoint
}

// ScaleOut reports the first figure's sweep over machine sizes.
func (r ScenarioResult) ScaleOut() ScaleResult {
	var out ScaleResult
	for _, v := range r.Scenario.Sweep {
		out.Processors = append(out.Processors, v.Level)
	}
	if len(r.Figures) == 0 {
		return out
	}
	out.Strategies = r.Figures[0].Figure.Strategies
	for _, p := range r.Figures[0].Points {
		out.Points = append(out.Points, ScalePoint{
			Strategy: p.Strategy, Processors: out.Processors[p.Variant], Result: p.Result,
		})
	}
	return out
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
	base, ok1 := sr.Throughput(strategy, sr.Processors[0])
	at, ok2 := sr.Throughput(strategy, procs)
	if !ok1 || !ok2 || base == 0 {
		return 0, false
	}
	return at / base, true
}

// Table renders throughput (and relative speedup) per machine size.
func (sr ScaleResult) Table() *stats.Table {
	headers := []string{"P", "MPL"}
	for _, s := range sr.Strategies {
		headers = append(headers, s+" q/s", s+" speedup")
	}
	tb := stats.NewTable("Scale-out: throughput vs machine size (MPL = 2P)", headers...)
	for _, procs := range sr.Processors {
		row := []any{procs, 2 * procs}
		for _, s := range sr.Strategies {
			tp, _ := sr.Throughput(s, procs)
			sp, _ := sr.Speedup(s, procs)
			row = append(row, fmt.Sprintf("%.1f", tp), fmt.Sprintf("%.2fx", sp))
		}
		tb.AddRow(row...)
	}
	return tb
}
