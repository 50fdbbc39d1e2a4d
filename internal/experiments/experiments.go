// Package experiments defines one experiment per figure of the paper's
// evaluation (Section 7) plus the ablations DESIGN.md calls out, runs them
// as campaigns through one driver (RunScenario; RunCampaign is its closed
// figure sweep) and renders their results as tables. cmd/declusterbench
// and the root bench_test.go both run their campaigns through it, so the
// benchmark harness and the CLI regenerate identical series.
package experiments

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gamma"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Correlation selects the relationship between partitioning attribute
// values (Section 4).
type Correlation int

// Correlation levels of the evaluation.
const (
	LowCorrelation  Correlation = iota // independent attribute values
	HighCorrelation                    // tightly correlated (window = card/1000)
)

func (c Correlation) String() string {
	if c == HighCorrelation {
		return "high"
	}
	return "low"
}

// window converts the correlation level to a generator window for a
// relation of the given cardinality.
func (c Correlation) window(card int) int {
	if c == HighCorrelation {
		w := card / 1000
		if w < 1 {
			w = 1
		}
		return w
	}
	return 0
}

// Strategy names accepted by figures.
const (
	StrategyMAGIC      = "magic"
	StrategyBERD       = "berd"
	StrategyRange      = "range"
	StrategyHash       = "hash"
	StrategyRoundRobin = "roundrobin"
)

// Figure is one experiment: a workload mix, a correlation level, and the
// strategies to compare across the MPL sweep.
type Figure struct {
	ID          string
	Title       string
	Mix         func(card int) workload.Mix
	Correlation Correlation
	Strategies  []string
}

// Figures returns every figure of the paper's evaluation section, in paper
// order.
func Figures() []Figure {
	std := []string{StrategyMAGIC, StrategyBERD, StrategyRange}
	return []Figure{
		{ID: "8a", Title: "Low-Low Query Mix (low correlation)",
			Mix: workload.LowLow, Correlation: LowCorrelation, Strategies: std},
		{ID: "8b", Title: "Low-Low Query Mix (high correlation)",
			Mix: workload.LowLow, Correlation: HighCorrelation, Strategies: std},
		{ID: "9", Title: "Low-Low Query Mix with Higher Selectivity (low correlation)",
			Mix: workload.LowLowWider, Correlation: LowCorrelation,
			Strategies: []string{StrategyMAGIC, StrategyBERD}},
		{ID: "10a", Title: "Low-Moderate Query Mix (low correlation)",
			Mix: workload.LowModerate, Correlation: LowCorrelation, Strategies: std},
		{ID: "10b", Title: "Low-Moderate Query Mix (high correlation)",
			Mix: workload.LowModerate, Correlation: HighCorrelation, Strategies: std},
		{ID: "11a", Title: "Moderate-Low Query Mix (low correlation)",
			Mix: workload.ModerateLow, Correlation: LowCorrelation, Strategies: std},
		{ID: "11b", Title: "Moderate-Low Query Mix (high correlation)",
			Mix: workload.ModerateLow, Correlation: HighCorrelation, Strategies: std},
		{ID: "12a", Title: "Moderate-Moderate Query Mix (low correlation)",
			Mix: workload.ModerateModerate, Correlation: LowCorrelation, Strategies: std},
		{ID: "12b", Title: "Moderate-Moderate Query Mix (high correlation)",
			Mix: workload.ModerateModerate, Correlation: HighCorrelation, Strategies: std},
	}
}

// FigureByID finds a figure (case-sensitive), or an error listing valid ids.
func FigureByID(id string) (Figure, error) {
	var ids []string
	for _, f := range Figures() {
		if f.ID == id {
			return f, nil
		}
		ids = append(ids, f.ID)
	}
	return Figure{}, fmt.Errorf("experiments: unknown figure %q (have %v)", id, ids)
}

// Options scales an experiment. The zero value is completed by
// (*Options).withDefaults: paper scale is Cardinality 100000, 32
// processors, MPL 1..64.
type Options struct {
	Cardinality    int
	Processors     int
	MPLs           []int
	WarmupQueries  int
	MeasureQueries int
	// Seed drives relation generation, machine randomness and workload
	// sampling. A zero Seed falls back to the default (1) unless SeedSet
	// marks it as explicitly chosen — seed 0 is a valid seed.
	Seed    int64
	SeedSet bool          `json:"SeedSet,omitempty"`
	Config  *gamma.Config // overrides gamma.DefaultConfig if set

	// Faults arms the deterministic fault injector on every machine the
	// experiment builds; ChainedReplicas mirrors fragments on chain
	// successors so degraded-mode execution can reroute. Both default off,
	// leaving experiment output byte-identical to earlier revisions.
	Faults          *fault.Spec `json:"Faults,omitempty"`
	ChainedReplicas bool        `json:"ChainedReplicas,omitempty"`

	// TelemetryWindowMS arms windowed time-series sampling on every machine
	// the experiment builds (sampling window in simulated milliseconds);
	// TelemetryCapacity bounds each series ring (0 = obs.DefaultCapacity)
	// and BurnBudget sets the serving SLO burn evaluator's per-window bad
	// fraction (0 = serve default). All default off, leaving experiment
	// output byte-identical to a telemetry-free build.
	TelemetryWindowMS float64 `json:"TelemetryWindowMS,omitempty"`
	TelemetryCapacity int     `json:"TelemetryCapacity,omitempty"`
	BurnBudget        float64 `json:"BurnBudget,omitempty"`

	// Heat arms fragment-granularity access accounting on every machine
	// the experiment builds: each run's result carries a heat snapshot and
	// hot-fragment report, and HeatTopK bounds that report (0 =
	// obs.DefaultHeatTopK). Off by default — the simulation schedule is
	// identical either way, and disabled output stays byte-identical to a
	// heat-free build.
	Heat     bool `json:"Heat,omitempty"`
	HeatTopK int  `json:"HeatTopK,omitempty"`

	// SharingWindowMS > 0 arms shared-scan batching on every machine the
	// experiment builds, with this batching window in simulated
	// milliseconds; ArmSharing resolves a default window. Composes with
	// Faults/ChainedReplicas. Off by default, leaving experiment output
	// byte-identical to a sharing-free build.
	SharingWindowMS float64 `json:"SharingWindowMS,omitempty"`
}

// ArmTelemetry arms windowed time-series sampling. Prefer these Arm helpers
// over poking the spec fields directly (the declusterbench plumbing used
// to): each sets the fields stampSpecs turns into one gamma.Config spec,
// with gamma.Config.Validate as the single validation path.
func (o *Options) ArmTelemetry(windowMS float64, capacity int, burnBudget float64) {
	o.TelemetryWindowMS = windowMS
	o.TelemetryCapacity = capacity
	o.BurnBudget = burnBudget
}

// ArmHeat arms fragment-heat accounting with a topK-bounded report.
func (o *Options) ArmHeat(topK int) {
	o.Heat = true
	o.HeatTopK = topK
}

// ArmSharing arms shared-scan batching; windowMS <= 0 selects
// gamma.DefaultSharingWindow.
func (o *Options) ArmSharing(windowMS float64) {
	if windowMS <= 0 {
		windowMS = float64(gamma.DefaultSharingWindow) / float64(sim.Millisecond)
	}
	o.SharingWindowMS = windowMS
}

// ArmFaults arms the deterministic fault injector (and, optionally,
// chained-replica mirroring for degraded-mode rerouting).
func (o *Options) ArmFaults(spec *fault.Spec, chainedReplicas bool) {
	o.Faults = spec
	o.ChainedReplicas = chainedReplicas
}

// PaperScale returns the full-scale options used for EXPERIMENTS.md.
func PaperScale() Options {
	return Options{
		Cardinality:    100000,
		Processors:     32,
		MPLs:           []int{1, 8, 16, 24, 32, 40, 48, 56, 64},
		WarmupQueries:  300,
		MeasureQueries: 1500,
		Seed:           1,
	}
}

// QuickScale returns reduced options for unit tests and testing.B runs.
func QuickScale() Options {
	return Options{
		Cardinality:    20000,
		Processors:     32,
		MPLs:           []int{1, 8, 32, 64},
		WarmupQueries:  60,
		MeasureQueries: 300,
		Seed:           1,
	}
}

func (o Options) withDefaults() Options {
	d := PaperScale()
	if o.Cardinality <= 0 {
		o.Cardinality = d.Cardinality
	}
	if o.Processors <= 0 {
		o.Processors = d.Processors
	}
	if len(o.MPLs) == 0 {
		o.MPLs = d.MPLs
	}
	if o.WarmupQueries <= 0 {
		o.WarmupQueries = d.WarmupQueries
	}
	if o.MeasureQueries <= 0 {
		o.MeasureQueries = d.MeasureQueries
	}
	if o.Seed == 0 && !o.SeedSet {
		o.Seed = d.Seed
	}
	return o
}

// Point is one measured (strategy, MPL) combination.
type Point struct {
	Strategy string
	MPL      int
	Result   gamma.RunResult
}

// FigureResult holds a completed figure.
type FigureResult struct {
	Figure  Figure
	Options Options
	Points  []Point
	// Notes records construction facts the paper reports alongside the
	// curves (grid directory shape, average processors used, ...).
	Notes []string
}

// BuildPlacement constructs the named strategy for a relation through
// core.BuildStrategy, estimating MAGIC's planning inputs from the mix. A
// strategy added to core.BuildStrategy becomes runnable here (and in
// declusterbench) without touching this package; an unknown name reports
// every strategy.
func BuildPlacement(name string, rel *storage.Relation, mix workload.Mix, opts Options) (core.Placement, error) {
	opts = opts.withDefaults()
	cfg := gamma.DefaultConfig()
	if opts.Config != nil {
		cfg = *opts.Config
	}
	params := core.StrategyParams{
		Relation:       rel,
		Processors:     opts.Processors,
		PrimaryAttr:    storage.Unique1,
		SecondaryAttrs: []int{storage.Unique2},
	}
	if rel != nil {
		params.Specs = workload.EstimateSpecs(mix, rel.Cardinality(), cfg.HW, cfg.Costs)
		params.Plan = workload.PlanParamsFor(rel.Cardinality(), opts.Processors, cfg.Costs)
	}
	return core.BuildStrategy(name, params)
}

// ConfigFor returns the machine configuration an experiment with these
// options uses. An explicit Options.Config override wins: it is returned
// with only the knobs Options itself carries — the seed and the subsystem
// specs — stamped on top, the same precedence RunCampaign has always
// applied. The processor count is the placement's, not the config's.
// Without an override the result is the Table 2 defaults, with the buffer
// pool sized to the per-node index footprint (plus a small margin)
// whatever the relation scale — index pages stay resident while data pages
// pay I/O, which is the paper's cost regime. At paper scale this
// reproduces the default 24 pages.
func ConfigFor(opts Options) gamma.Config {
	opts = opts.withDefaults()
	if opts.Config != nil {
		cfg := *opts.Config
		cfg.Seed = opts.Seed
		return stampSpecs(cfg, opts)
	}
	cfg := gamma.DefaultConfig()
	leafCap := cfg.Layout.IndexLeafCap
	perNode := (opts.Cardinality + opts.Processors*leafCap - 1) / (opts.Processors * leafCap)
	cfg.BufferPages = 2*perNode + 6
	cfg.Seed = opts.Seed
	return stampSpecs(cfg, opts)
}

// stampSpecs carries the experiment-level subsystem knobs onto the machine
// config as fresh specs; gamma.Config.Validate, called by gamma.New, checks
// them. Options wins only when it says something: a nil Options.Faults
// leaves a Config override's own spec in place.
func stampSpecs(cfg gamma.Config, opts Options) gamma.Config {
	if opts.Faults != nil {
		cfg.Faults = opts.Faults
	}
	if opts.ChainedReplicas {
		cfg.ChainedReplicas = true
	}
	if opts.TelemetryWindowMS > 0 {
		cfg.Telemetry = &gamma.TelemetrySpec{
			Window:     sim.Duration(opts.TelemetryWindowMS * float64(sim.Millisecond)),
			Capacity:   opts.TelemetryCapacity,
			BurnBudget: opts.BurnBudget,
		}
	}
	if opts.Heat {
		cfg.Heat = &gamma.HeatSpec{TopK: opts.HeatTopK}
	}
	if opts.SharingWindowMS > 0 {
		cfg.Sharing = &gamma.SharingSpec{
			Window: sim.Duration(opts.SharingWindowMS * float64(sim.Millisecond)),
		}
	}
	return cfg
}

// Throughput returns the measured throughput for a (strategy, MPL), or
// (0, false).
func (fr FigureResult) Throughput(strategy string, mpl int) (float64, bool) {
	for _, p := range fr.Points {
		if p.Strategy == strategy && p.MPL == mpl {
			return p.Result.ThroughputQPS, true
		}
	}
	return 0, false
}

// Table renders the figure as "MPL x strategy -> throughput", the series
// the paper plots.
func (fr FigureResult) Table() *stats.Table {
	strategies := fr.strategies()
	headers := append([]string{"MPL"}, strategies...)
	tb := stats.NewTable(fmt.Sprintf("Figure %s: %s — throughput (queries/second)",
		fr.Figure.ID, fr.Figure.Title), headers...)
	for _, mpl := range fr.mpls() {
		row := make([]any, 0, len(headers))
		row = append(row, mpl)
		for _, s := range strategies {
			if tp, ok := fr.Throughput(s, mpl); ok {
				row = append(row, fmt.Sprintf("%.2f", tp))
			} else {
				row = append(row, "-")
			}
		}
		tb.AddRow(row...)
	}
	return tb
}

// Chart renders the figure as an ASCII line chart — the curves the paper
// plots.
func (fr FigureResult) Chart() *stats.Chart {
	c := stats.NewChart(fmt.Sprintf("Figure %s: %s", fr.Figure.ID, fr.Figure.Title),
		"MPL", "queries/second")
	for _, s := range fr.strategies() {
		var xs, ys []float64
		for _, mpl := range fr.mpls() {
			if tp, ok := fr.Throughput(s, mpl); ok {
				xs = append(xs, float64(mpl))
				ys = append(ys, tp)
			}
		}
		c.AddSeries(s, xs, ys)
	}
	return c
}

// DetailTable renders per-point diagnostics (processors used, response
// time, utilizations, execution skew).
func (fr FigureResult) DetailTable() *stats.Table {
	tb := stats.NewTable(fmt.Sprintf("Figure %s detail", fr.Figure.ID),
		"strategy", "MPL", "q/s", "resp ms", "p95 ms", "procs/query",
		"disk util", "cpu util", "buf hit", "reads/query", "disk skew")
	for _, p := range fr.Points {
		r := p.Result
		tb.AddRow(p.Strategy, p.MPL,
			fmt.Sprintf("%.2f", r.ThroughputQPS),
			fmt.Sprintf("%.1f", r.MeanResponseMS),
			fmt.Sprintf("%.1f", r.P95ResponseMS),
			fmt.Sprintf("%.2f", r.MeanProcsUsed),
			fmt.Sprintf("%.2f", r.DiskUtilization),
			fmt.Sprintf("%.2f", r.CPUUtilization),
			fmt.Sprintf("%.2f", r.BufferHitRate),
			fmt.Sprintf("%.1f", r.DiskReadsPerQry),
			fmt.Sprintf("%.2f", r.DiskSkew))
	}
	return tb
}

// Point returns the measured result for a (strategy, MPL), or nil.
func (fr FigureResult) Point(strategy string, mpl int) *gamma.RunResult {
	for i := range fr.Points {
		if fr.Points[i].Strategy == strategy && fr.Points[i].MPL == mpl {
			return &fr.Points[i].Result
		}
	}
	return nil
}

// NodeTable renders a (strategy, MPL) point's per-node resource breakdown —
// the execution-skew vector behind the figure's means. Returns nil when the
// point was not measured.
func (fr FigureResult) NodeTable(strategy string, mpl int) *stats.Table {
	r := fr.Point(strategy, mpl)
	if r == nil || len(r.NodeStats) == 0 {
		return nil
	}
	tb := stats.NewTable(
		fmt.Sprintf("Figure %s: %s @ MPL %d — per-node utilization (disk skew %.2f, cpu skew %.2f)",
			fr.Figure.ID, strategy, mpl, r.DiskSkew, r.CPUSkew),
		"node", "cpu util", "disk util", "disk reads", "buf hit", "ops", "tuples")
	for _, u := range r.NodeStats {
		tb.AddRow(u.Node,
			fmt.Sprintf("%.3f", u.CPUUtil),
			fmt.Sprintf("%.3f", u.DiskUtil),
			u.DiskReads,
			fmt.Sprintf("%.2f", u.BufferHitRate),
			u.OpsExecuted,
			u.TuplesShipped)
	}
	return tb
}

func (fr FigureResult) strategies() []string {
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

func (fr FigureResult) mpls() []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range fr.Points {
		if !seen[p.MPL] {
			seen[p.MPL] = true
			out = append(out, p.MPL)
		}
	}
	sort.Ints(out)
	return out
}
