package experiments

// Elasticity campaigns: run each strategy under an open arrival process
// while the cluster's membership changes mid-run — a node joins, another
// is decommissioned — and measure what scale-out actually costs: the time
// from a planned transition to its cutover, the data volume the throttled
// copier moved, and the goodput dip the serving layer saw while the copy
// competed with queries for the disks. The scenario has one job per
// (figure, strategy, initial cluster size).

import (
	"fmt"

	"repro/internal/gamma"
	"repro/internal/rebalance"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ElasticOptions parameterize an elasticity campaign on top of the base
// Options (cardinality, seed, warmup/measure window). Each point runs one
// open-system serving measurement with a membership schedule armed.
type ElasticOptions struct {
	// Arrival is the arrival-process kind; RateQPS is Lambda.
	Arrival serve.ArrivalKind `json:"arrival"`
	// Lambda is the offered load in queries/second. Default 100.
	Lambda float64 `json:"lambda"`
	// Sizes sweeps the initial cluster size (the paper's declustering
	// degree); each point starts at that many members and applies the same
	// join/decommission schedule. Default {Options.Processors}.
	Sizes []int `json:"sizes"`
	// JoinAt schedules one node join at this offset; <= 0 disables it.
	// Default 300ms.
	JoinAt sim.Duration `json:"join_at"`
	// LeaveAt schedules the decommission of LeaveNode; <= 0 disables it.
	// Default 3x JoinAt, so the join's copy window has room to drain first
	// at smoke scale.
	LeaveAt sim.Duration `json:"leave_at"`
	// LeaveNode is the member decommissioned at LeaveAt. Default 1.
	LeaveNode int `json:"leave_node"`
	// MigrateRate throttles the background copier in pages/second; 0 uses
	// the rebalance default. The effective rate is further bounded by the
	// per-page disk latency the copy I/O pays.
	MigrateRate int `json:"migrate_rate,omitempty"`
	// Tenants, SLOms and MaxInService become the scenario's OpenOptions;
	// zero values take its defaults.
	Tenants      int     `json:"tenants"`
	SLOms        float64 `json:"slo_ms"`
	MaxInService int     `json:"max_in_service"`
}

func (o ElasticOptions) withDefaults(opts Options) ElasticOptions {
	if o.Lambda <= 0 {
		o.Lambda = 100
	}
	if len(o.Sizes) == 0 {
		o.Sizes = []int{opts.Processors}
	}
	if o.JoinAt == 0 {
		o.JoinAt = 300 * sim.Millisecond
	}
	if o.LeaveAt == 0 && o.JoinAt > 0 {
		o.LeaveAt = 3 * o.JoinAt
	}
	if o.LeaveNode <= 0 {
		o.LeaveNode = 1
	}
	return o
}

// events materializes the point schedule. Joins allocate standby nodes in
// controller order, so the event list needs no explicit node ids for them.
func (o ElasticOptions) events() []rebalance.Event {
	var evs []rebalance.Event
	if o.JoinAt > 0 {
		evs = append(evs, rebalance.Event{At: o.JoinAt, Kind: rebalance.Join})
	}
	if o.LeaveAt > 0 {
		evs = append(evs, rebalance.Event{
			At: o.LeaveAt, Kind: rebalance.Decommission, Node: o.LeaveNode,
		})
	}
	return evs
}

// ElasticPoint is one measured (strategy, initial size) combination.
type ElasticPoint struct {
	Strategy string `json:"strategy"`
	Size     int    `json:"size"`

	Result gamma.ServeResult `json:"result"`

	// TimeToRebalance is the slowest transition's plan-to-cutover span.
	TimeToRebalance sim.Duration `json:"time_to_rebalance"`
	// PagesMoved/BytesMoved total the copier's charged I/O across tasks.
	PagesMoved int   `json:"pages_moved"`
	BytesMoved int64 `json:"bytes_moved"`
	// GoodputDip is 1 - (worst window / run mean) of the serve.goodput_qps
	// series: 0 means rebalancing never dented goodput, 1 means some window
	// served nothing. The final (possibly partial) window is excluded.
	GoodputDip float64 `json:"goodput_dip"`
	// Summary is the one-line rebalance digest CI smoke tests grep for.
	Summary string `json:"summary"`
}

// ElasticFigureResult holds one figure's elasticity sweep.
type ElasticFigureResult struct {
	Figure  Figure         `json:"figure"`
	Options Options        `json:"options"`
	Elastic ElasticOptions `json:"elastic"`
	Points  []ElasticPoint `json:"points"`
	Notes   []string       `json:"notes,omitempty"`
}

// goodputDip condenses the goodput time series into the rebalance cost the
// campaign reports: how far the worst sampling window fell below the run
// mean. The last window is dropped — it is usually partial (the run ends
// mid-window) and would read as a dip that never happened.
func goodputDip(res gamma.ServeResult) float64 {
	s := seriesFor(res, "serve.goodput_qps")
	if s == nil {
		return 0
	}
	pts := s.Points
	if len(pts) > 1 {
		pts = pts[:len(pts)-1]
	}
	if len(pts) == 0 {
		return 0
	}
	min, sum := pts[0].V, 0.0
	for _, p := range pts {
		sum += p.V
		if p.V < min {
			min = p.V
		}
	}
	mean := sum / float64(len(pts))
	if mean <= 0 {
		return 0
	}
	return 1 - min/mean
}

// ElasticScenario serves each figure's open arrival process while the
// membership controller applies the schedule: by default one standby joins
// at JoinAt and member LeaveNode is decommissioned at LeaveAt, each
// transition restaging the strategy's own placement at the new node count
// (strategies that cannot build at a given count record a refusal instead
// of failing the run). The sweep is the initial cluster sizes. Telemetry is
// forced on: the goodput dip is read from the windowed series.
func ElasticScenario(figs []Figure, opts Options, eopts ElasticOptions) Scenario {
	opts = opts.withDefaults()
	eopts = eopts.withDefaults(opts)
	// 250ms windows hold ~25 completions at the default λ=100: coarse
	// enough that an empty window means a real stall, not Poisson noise.
	if opts.TelemetryWindowMS <= 0 {
		opts.TelemetryWindowMS = 250
	}
	sc := Scenario{
		Figures: figs,
		Options: opts,
		Open: &OpenOptions{
			Arrival:      eopts.Arrival,
			Lambdas:      []float64{eopts.Lambda},
			Tenants:      eopts.Tenants,
			SLOms:        eopts.SLOms,
			MaxInService: eopts.MaxInService,
		},
		Elastic: &eopts,
	}
	for _, size := range eopts.Sizes {
		v := opts
		v.Processors = size
		sc.Sweep = append(sc.Sweep, Variant{Tag: fmt.Sprintf("n%d", size), Level: size, Options: v})
	}
	return sc
}

// Elastic reports each figure's elasticity sweep.
func (r ScenarioResult) Elastic() []ElasticFigureResult {
	var out []ElasticFigureResult
	for _, f := range r.Figures {
		fr := ElasticFigureResult{Figure: f.Figure, Options: r.Scenario.Options, Elastic: *r.Scenario.Elastic, Notes: f.Notes}
		for _, p := range f.Points {
			pt := ElasticPoint{Strategy: p.Strategy, Size: r.Scenario.Sweep[p.Variant].Level, Result: p.Serve}
			if rep := p.Serve.Rebalance; rep != nil {
				pt.TimeToRebalance = rep.MaxRebalance()
				pt.PagesMoved = rep.ReadPages + rep.WritePages
				pt.BytesMoved = rep.BytesMoved
				pt.Summary = rep.Summary()
			}
			pt.GoodputDip = goodputDip(p.Serve)
			fr.Points = append(fr.Points, pt)
		}
		out = append(out, fr)
	}
	return out
}

// Table renders the elasticity sweep: per (strategy, size), the measured
// time-to-rebalance, data moved, goodput dip and query outcomes.
func (fr ElasticFigureResult) Table() *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Figure %s elasticity (λ=%g q/s, join@%v, leave@%v): %s",
			fr.Figure.ID, fr.Elastic.Lambda, fr.Elastic.JoinAt, fr.Elastic.LeaveAt,
			fr.Figure.Title),
		"strategy", "size", "tasks", "rebalance ms", "pages moved", "MB moved",
		"goodput q/s", "dip%", "failed", "errors")
	for _, p := range fr.Points {
		tasks, errors := 0, int64(0)
		if rep := p.Result.Rebalance; rep != nil {
			tasks = len(rep.Tasks)
			errors = rep.Errors
			for _, t := range rep.Tasks {
				if t.Err != "" {
					errors++
				}
			}
		}
		tb.AddRow(p.Strategy,
			fmt.Sprintf("%d", p.Size),
			fmt.Sprintf("%d", tasks),
			fmt.Sprintf("%.1f", float64(p.TimeToRebalance)/float64(sim.Millisecond)),
			fmt.Sprintf("%d", p.PagesMoved),
			fmt.Sprintf("%.2f", float64(p.BytesMoved)/(1<<20)),
			fmt.Sprintf("%.2f", p.Result.Serve.GoodputQPS()),
			fmt.Sprintf("%.1f", 100*p.GoodputDip),
			fmt.Sprintf("%d", p.Result.Serve.Outcomes.Failed),
			fmt.Sprintf("%d", errors))
	}
	return tb
}
