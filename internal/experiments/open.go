package experiments

// Open-system campaigns: instead of sweeping the closed-loop MPL, sweep the
// offered load of an open arrival process and measure what each strategy
// can actually serve — sustainable throughput (the goodput knee), tail
// latency of admitted queries, and shed rate once the admission controller
// starts refusing work. OpenOptions is a scenario's open load axis; the
// reporters here render the resulting points.

import (
	"fmt"

	"repro/internal/gamma"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
)

// OpenOptions parameterize an open-system campaign on top of the base
// Options (which still supply cardinality, processors, seed and the
// warmup/measure window).
type OpenOptions struct {
	// Arrival is the arrival-process kind; the per-kind shape parameters
	// use the serve package defaults.
	Arrival serve.ArrivalKind `json:"arrival"`
	// Lambdas is the offered-load sweep in queries/second. The default
	// {100, 200, 400, 800} straddles every registered strategy's paper-
	// scale capacity (berd ~340 q/s, range ~420, magic ~600 at MPL 64).
	Lambdas []float64 `json:"lambdas"`
	// Tenants is the number of equally weighted tenants. Default 4.
	Tenants int `json:"tenants"`
	// SLOms is the latency objective for goodput. Default 1000.
	SLOms float64 `json:"slo_ms"`
	// MaxInService is the MPL governor cap. Default 64.
	MaxInService int `json:"max_in_service"`
	// MaxQueue bounds the admission queue. Default 4 x MaxInService.
	MaxQueue int `json:"max_queue,omitempty"`
	// MaxSimTime bounds each point in simulated time (guards the lowest
	// lambdas); zero uses the serve default.
	MaxSimTime sim.Duration `json:"max_sim_time,omitempty"`
}

func (o OpenOptions) withDefaults() OpenOptions {
	if len(o.Lambdas) == 0 {
		o.Lambdas = []float64{100, 200, 400, 800}
	}
	if o.Tenants <= 0 {
		o.Tenants = 4
	}
	if o.SLOms <= 0 {
		o.SLOms = 1000
	}
	if o.MaxInService <= 0 {
		o.MaxInService = 64
	}
	return o
}

// OpenPoint is one measured (strategy, offered load) combination.
type OpenPoint struct {
	Strategy string            `json:"strategy"`
	Lambda   float64           `json:"lambda"`
	Result   gamma.ServeResult `json:"result"`
}

// OpenFigureResult holds one figure's open-system sweep.
type OpenFigureResult struct {
	Figure  Figure      `json:"figure"`
	Options Options     `json:"options"`
	Open    OpenOptions `json:"open"`
	Points  []OpenPoint `json:"points"`
	Notes   []string    `json:"notes,omitempty"`
}

// OpenCampaign holds the completed open-system figures plus the harness
// manifest (whose job reports carry the arrival kind and offered load).
type OpenCampaign struct {
	Figures  []OpenFigureResult
	Manifest harness.Manifest
}

// RunOpenSystem runs the figures' open-system load sweeps: RunScenario
// with oopts as the load axis, reported per figure.
func RunOpenSystem(figs []Figure, opts Options, oopts OpenOptions, copts CampaignOptions) (OpenCampaign, error) {
	res, err := RunScenario(Scenario{Figures: figs, Options: opts, Open: &oopts}, copts)
	return OpenCampaign{Figures: res.Open(), Manifest: res.Manifest}, err
}

// Open reports each figure's open-system points (the first variant's).
func (r ScenarioResult) Open() []OpenFigureResult {
	var out []OpenFigureResult
	for _, f := range r.Figures {
		fr := OpenFigureResult{Figure: f.Figure, Options: r.Scenario.Options, Open: *r.Scenario.Open, Notes: f.Notes}
		for _, p := range f.Points {
			if p.Variant == 0 {
				fr.Points = append(fr.Points, OpenPoint{Strategy: p.Strategy, Lambda: p.Lambda, Result: p.Serve})
			}
		}
		out = append(out, fr)
	}
	return out
}

// Point returns the measured result for a (strategy, lambda), or nil.
func (fr OpenFigureResult) Point(strategy string, lambda float64) *gamma.ServeResult {
	for i := range fr.Points {
		if fr.Points[i].Strategy == strategy && fr.Points[i].Lambda == lambda {
			return &fr.Points[i].Result
		}
	}
	return nil
}

func (fr OpenFigureResult) strategies() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range fr.Points {
		if !seen[p.Strategy] {
			seen[p.Strategy] = true
			out = append(out, p.Strategy)
		}
	}
	return out
}

// Table renders the sweep as "offered load x strategy -> goodput", the
// open-system analogue of the paper's throughput figures.
func (fr OpenFigureResult) Table() *stats.Table {
	strategies := fr.strategies()
	headers := append([]string{"offered q/s"}, strategies...)
	tb := stats.NewTable(fmt.Sprintf("Figure %s (open, %s arrivals): %s — goodput (queries/second within %.0fms SLO)",
		fr.Figure.ID, fr.Open.Arrival, fr.Figure.Title, fr.Open.SLOms), headers...)
	for _, lambda := range fr.Open.Lambdas {
		row := make([]any, 0, len(headers))
		row = append(row, fmt.Sprintf("%.0f", lambda))
		for _, s := range strategies {
			if r := fr.Point(s, lambda); r != nil {
				row = append(row, fmt.Sprintf("%.2f", r.Serve.GoodputQPS()))
			} else {
				row = append(row, "-")
			}
		}
		tb.AddRow(row...)
	}
	return tb
}

// DetailTable renders per-point serving diagnostics: completion and goodput
// rates, latency quantiles of admitted queries, shed breakdown, utilization.
func (fr OpenFigureResult) DetailTable() *stats.Table {
	tb := stats.NewTable(fmt.Sprintf("Figure %s open-system detail", fr.Figure.ID),
		"strategy", "offered", "done q/s", "goodput", "p50 ms", "p95 ms", "p99 ms",
		"shed%", "full/aged/shut", "disk util")
	for _, p := range fr.Points {
		s := p.Result.Serve
		tb.AddRow(p.Strategy,
			fmt.Sprintf("%.0f", p.Lambda),
			fmt.Sprintf("%.2f", s.CompletedQPS()),
			fmt.Sprintf("%.2f", s.GoodputQPS()),
			fmt.Sprintf("%.1f", s.SLO.Latency.P50),
			fmt.Sprintf("%.1f", s.SLO.P95ms),
			fmt.Sprintf("%.1f", s.SLO.Latency.P99),
			fmt.Sprintf("%.1f", 100*s.SLO.ShedRate()),
			fmt.Sprintf("%d/%d/%d", s.SLO.ShedQueueFull, s.SLO.ShedAged, s.SLO.ShedShutdown),
			fmt.Sprintf("%.2f", p.Result.DiskUtilization))
	}
	return tb
}

// StrategySummary condenses one strategy's sweep: the goodput knee
// (sustainable throughput) and the behaviour at the highest offered load at
// or beyond twice the knee, where admission control must be visibly
// shedding while the admitted tail stays bounded.
type StrategySummary struct {
	Strategy string `json:"strategy"`
	// KneeLambda is the offered load with the highest goodput; Sustainable
	// is that goodput — the most the strategy can serve within the SLO.
	KneeLambda  float64 `json:"knee_lambda"`
	Sustainable float64 `json:"sustainable_qps"`
	P99AtKnee   float64 `json:"p99_at_knee_ms"`
	// Overload reports the sweep point at >= 2x the knee lambda (0s when
	// the sweep has no such point).
	OverloadLambda float64 `json:"overload_lambda,omitempty"`
	OverloadP99    float64 `json:"overload_p99_ms,omitempty"`
	OverloadShed   float64 `json:"overload_shed_rate,omitempty"`
}

// Summaries computes the per-strategy serving summary in figure order.
func (fr OpenFigureResult) Summaries() []StrategySummary {
	var out []StrategySummary
	for _, s := range fr.strategies() {
		sum := StrategySummary{Strategy: s}
		for _, p := range fr.Points {
			if p.Strategy != s {
				continue
			}
			if g := p.Result.Serve.GoodputQPS(); g > sum.Sustainable {
				sum.Sustainable = g
				sum.KneeLambda = p.Lambda
				sum.P99AtKnee = p.Result.Serve.SLO.Latency.P99
			}
		}
		// Highest sweep point at or beyond 2x the knee's offered load.
		for _, p := range fr.Points {
			if p.Strategy != s || p.Lambda < 2*sum.KneeLambda {
				continue
			}
			if p.Lambda > sum.OverloadLambda {
				sum.OverloadLambda = p.Lambda
				sum.OverloadP99 = p.Result.Serve.SLO.Latency.P99
				sum.OverloadShed = p.Result.Serve.SLO.ShedRate()
			}
		}
		out = append(out, sum)
	}
	return out
}

// seriesFor returns the named series from a point's telemetry snapshot,
// or nil when telemetry was off or the series is absent.
func seriesFor(res gamma.ServeResult, name string) *obs.SeriesData {
	for i := range res.Series {
		if res.Series[i].Name == name {
			return &res.Series[i]
		}
	}
	return nil
}

// HasTimeSeries reports whether any point carries a telemetry snapshot.
func (fr OpenFigureResult) HasTimeSeries() bool {
	for _, p := range fr.Points {
		if len(p.Result.Series) > 0 {
			return true
		}
	}
	return false
}

// timeTable renders one named series over the measurement window: one row
// per sampling window (time relative to each run's warm-up boundary — runs
// warm at different absolute instants, so relative time is the comparable
// axis), one column per strategy at the given offered load.
func (fr OpenFigureResult) timeTable(title, series string, lambda float64, format string) *stats.Table {
	strategies := fr.strategies()
	headers := append([]string{"t (ms)"}, strategies...)
	tb := stats.NewTable(title, headers...)
	cols := make([]*obs.SeriesData, len(strategies))
	rows, windowNS := 0, int64(0)
	for i, s := range strategies {
		if r := fr.Point(s, lambda); r != nil {
			cols[i] = seriesFor(*r, series)
		}
		if cols[i] != nil {
			if n := len(cols[i].Points); n > rows {
				rows = n
			}
			windowNS = cols[i].WindowNS
		}
	}
	for row := 0; row < rows; row++ {
		out := make([]any, 0, len(headers))
		out = append(out, fmt.Sprintf("%.0f", float64(row+1)*float64(windowNS)/1e6))
		for _, c := range cols {
			if c == nil || row >= len(c.Points) {
				out = append(out, "-")
				continue
			}
			out = append(out, fmt.Sprintf(format, c.Points[row].V))
		}
		tb.AddRow(out...)
	}
	return tb
}

// GoodputOverTime renders the per-window goodput of every strategy at one
// offered load — the time-resolved view behind the Table aggregate, showing
// when each strategy's admission control starts shedding rather than just
// that it did.
func (fr OpenFigureResult) GoodputOverTime(lambda float64) *stats.Table {
	return fr.timeTable(
		fmt.Sprintf("Figure %s goodput-over-time (λ=%g q/s, %v windows)",
			fr.Figure.ID, lambda, sim.Duration(fr.windowNS())),
		"serve.goodput_qps", lambda, "%.1f")
}

// SkewOverTime renders the per-window disk execution skew (max/mean of the
// window's per-node busy time; 1.0 = balanced) of every strategy at one
// offered load.
func (fr OpenFigureResult) SkewOverTime(lambda float64) *stats.Table {
	return fr.timeTable(
		fmt.Sprintf("Figure %s disk-skew-over-time (λ=%g q/s, %v windows)",
			fr.Figure.ID, lambda, sim.Duration(fr.windowNS())),
		"disk.skew", lambda, "%.2f")
}

// windowNS reports the sampling window of the figure's telemetry, 0 if off.
func (fr OpenFigureResult) windowNS() int64 {
	for _, p := range fr.Points {
		for i := range p.Result.Series {
			if w := p.Result.Series[i].WindowNS; w > 0 {
				return w
			}
		}
	}
	return 0
}

// SummaryTable renders the serving summary block declusterbench prints.
func (fr OpenFigureResult) SummaryTable() *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Figure %s serving summary (%s arrivals, %.0fms SLO)",
			fr.Figure.ID, fr.Open.Arrival, fr.Open.SLOms),
		"strategy", "sustainable q/s", "knee λ", "p99@knee ms",
		"overload λ", "p99@overload ms", "shed@overload")
	for _, s := range fr.Summaries() {
		over, overP99, overShed := "-", "-", "-"
		if s.OverloadLambda > 0 {
			over = fmt.Sprintf("%.0f", s.OverloadLambda)
			overP99 = fmt.Sprintf("%.1f", s.OverloadP99)
			overShed = fmt.Sprintf("%.1f%%", 100*s.OverloadShed)
		}
		tb.AddRow(s.Strategy,
			fmt.Sprintf("%.2f", s.Sustainable),
			fmt.Sprintf("%.0f", s.KneeLambda),
			fmt.Sprintf("%.1f", s.P99AtKnee),
			over, overP99, overShed)
	}
	return tb
}
