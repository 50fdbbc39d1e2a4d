package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gamma"
	"repro/internal/storage"
)

// span is one timed call into a layer. Start and End are nanoseconds since
// the traced run began; Parent is 0 for the root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    string `json:"job,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory; the traced run writes them out at exit.
// Calls are traced from one goroutine, so open spans form a stack.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indexes into spans
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name, job string) {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name,
		Start: int64(time.Since(t.t0)),
	})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	n := len(t.open)
	t.spans[t.open[n-1]].End = int64(time.Since(t.t0))
	t.open = t.open[:n-1]
}

// do runs fn inside a span.
func (t *tracer) do(name, job string, fn func()) {
	t.begin(name, job)
	defer t.end()
	fn()
}

// selfMS sums, over the spans with the given name, each span's duration
// minus the time its child spans cover. Children of one span never overlap
// (the traced run is sequential), so their durations add up.
func selfMS(spans []span, name string) (total float64, count int) {
	children := make(map[int]int64)
	for _, s := range spans {
		children[s.Parent] += s.End - s.Start
	}
	for _, s := range spans {
		if s.Name == name {
			total += float64(s.End-s.Start-children[s.ID]) / 1e6
			count++
		}
	}
	return total, count
}

// Span names of the traced run: each names the public function it wraps.
const (
	spanWorkload  = "bench.workload"
	spanJob       = "bench.job"
	spanRelgen    = "storage.GenerateWisconsin"
	spanPlacement = "experiments.BuildPlacement/"
	spanBuild     = "gamma.Build"
	spanReset     = "gamma.Machine.Reset"
	spanRun       = "gamma.Machine.Run" // Run or RunServe, as the workload measures it
)

// tracedRun is what one traced execution of a workload yields.
type tracedRun struct {
	Out      output
	Spans    []span
	Layers   map[string]float64
	Problems []string
	Jobs     int
}

// runTraced executes the workload the way RunCampaign and RunOpenSystem do,
// but calls each layer's public function directly on one goroutine and
// records a span around every call: GenerateWisconsin once per distinct
// relation, BuildPlacement once per (figure, strategy), and per job
// gamma.Build, one extra Machine.Reset (the rebuild every run pays), the
// measured run, and a mirror run of the same point with obs telemetry and
// heat toggled. The measured runs' output must equal the untraced run's.
func (w workload) runTraced(seed int64) (tracedRun, error) {
	figs, err := w.figures()
	if err != nil {
		return tracedRun{}, err
	}
	opts := w.options(seed)
	cfg := experiments.ConfigFor(opts)
	// The mirror run repeats each point with obs toggled.
	mirrorOpts := toggleObs(opts)
	mirrorCfg := experiments.ConfigFor(mirrorOpts)
	spanMirror := spanRun + "/obs-disarmed"
	if mirrorOpts.Heat {
		spanMirror = spanRun + "/obs-armed"
	}
	tr := newTracer()
	var res tracedRun
	var swaps int
	tr.begin(spanWorkload, "")

	type figBuild struct {
		rel        *storage.Relation
		placements []core.Placement
	}
	builds := make([]figBuild, len(figs))
	rels := map[int]*storage.Relation{}
	for i, f := range figs {
		window := correlationWindow(f.Correlation, opts.Cardinality)
		rel, ok := rels[window]
		if !ok {
			tr.do(spanRelgen, "", func() {
				rel = storage.GenerateWisconsin(storage.GenSpec{
					Cardinality: opts.Cardinality, CorrelationWindow: window, Seed: opts.Seed,
				})
			})
			rels[window] = rel
		}
		fo := figureOutput{ID: f.ID}
		builds[i].rel = rel
		for _, s := range f.Strategies {
			var pl core.Placement
			tr.do(spanPlacement+s, "", func() {
				pl, err = experiments.BuildPlacement(s, rel, f.Mix(opts.Cardinality), opts)
			})
			if err != nil {
				return tracedRun{}, fmt.Errorf("figure %s: %w", f.ID, err)
			}
			if m, ok := pl.(*core.MAGICPlacement); ok {
				fo.Notes = append(fo.Notes, magicNote(m))
				swaps += m.RebalanceSwaps()
			}
			builds[i].placements = append(builds[i].placements, pl)
		}
		res.Out.Figures = append(res.Out.Figures, fo)
	}

	var disk, hits, pages, ops, measured float64
	for i, f := range figs {
		mix := f.Mix(opts.Cardinality)
		for si, s := range f.Strategies {
			pl := builds[i].placements[si]
			for _, load := range w.loads() {
				id := jobID(w, f.ID, s, load)
				var m *gamma.Machine
				var runErr error
				tr.begin(spanJob, id)
				tr.do(spanBuild, id, func() { m, runErr = gamma.Build(builds[i].rel, pl, cfg) })
				if runErr != nil {
					return tracedRun{}, fmt.Errorf("%s: %w", id, runErr)
				}
				tr.do(spanReset, id, m.Reset)
				run := func() (any, error) {
					if w.Open == nil {
						return m.Run(mix, closedSpec(opts, int(load)))
					}
					return m.RunServe(mix, serveSpec(opts, *w.Open, load))
				}
				var got, mirror any
				tr.do(spanRun, id, func() { got, runErr = run() })
				if runErr != nil {
					return tracedRun{}, fmt.Errorf("%s: %w", id, runErr)
				}
				d, h, p, o := machineCounters(m)
				disk, hits, pages, ops = disk+d, hits+h, pages+p, ops+o
				fo := &res.Out.Figures[i]
				if r, ok := got.(gamma.RunResult); ok {
					fo.Closed = append(fo.Closed, experiments.Point{Strategy: s, MPL: int(load), Result: r})
					measured += float64(r.Completed)
				} else {
					r := got.(gamma.ServeResult)
					fo.Open = append(fo.Open, experiments.OpenPoint{Strategy: s, Lambda: load, Result: r})
					measured += float64(r.Serve.SLO.Completed)
				}
				m.Cfg = mirrorCfg
				tr.do(spanMirror, id, func() { mirror, runErr = run() })
				m.Cfg = cfg
				if runErr != nil {
					return tracedRun{}, fmt.Errorf("%s with obs toggled: %w", id, runErr)
				}
				if !sameSchedule(got, mirror) {
					res.Problems = append(res.Problems, id+": arming obs changed the simulated result")
				}
				tr.end()
				res.Jobs++
			}
		}
	}
	tr.end()

	res.Spans = tr.spans
	l := map[string]float64{
		"core.magic_rebalance_swaps": float64(swaps),
		"exec.disk_reads_per_query":  disk / measured,
		"buffer.hit_rate":            hits / pages,
		"exec.ops_per_query":         ops / measured,
	}
	l["storage.relgen_ms"], _ = selfMS(tr.spans, spanRelgen)
	for _, s := range []string{experiments.StrategyMAGIC, experiments.StrategyBERD, experiments.StrategyRange} {
		l["core.placement_ms."+s], _ = selfMS(tr.spans, spanPlacement+s)
	}
	l["gamma.build_ms"], _ = selfMS(tr.spans, spanBuild)
	resetMS, resets := selfMS(tr.spans, spanReset)
	l["gamma.reset_ms"] = resetMS / float64(resets)
	runMS, _ := selfMS(tr.spans, spanRun)
	mirrorMS, _ := selfMS(tr.spans, spanMirror)
	l["gamma.simulate_ms"] = runMS - resetMS
	l["gamma.host_us_per_sim_query"] = 1000 * (runMS - resetMS) / float64(res.Out.simQueries(opts))
	armedMS, unarmedMS := runMS, mirrorMS
	if mirrorOpts.Heat {
		armedMS, unarmedMS = mirrorMS, runMS
	}
	l["obs.armed_overhead_pct"] = 100 * (armedMS/unarmedMS - 1)
	res.Layers = l
	return res, nil
}

// loads are the workload's per-figure load points: closed-loop MPLs or
// open-loop offered rates.
func (w workload) loads() []float64 {
	if w.Open != nil {
		return w.Open.Lambdas
	}
	var out []float64
	for _, mpl := range w.Opts.MPLs {
		out = append(out, float64(mpl))
	}
	return out
}

func jobID(w workload, fig, strategy string, load float64) string {
	if w.Open != nil {
		return fmt.Sprintf("fig%s/%s/%s%g", fig, strategy, w.Open.Arrival, load)
	}
	return fmt.Sprintf("fig%s/%s/mpl%d", fig, strategy, int(load))
}

// toggleObs returns the options with obs telemetry and heat flipped: armed
// when the workload runs disarmed and vice versa.
func toggleObs(o experiments.Options) experiments.Options {
	if o.Heat || o.TelemetryWindowMS > 0 {
		o.ArmTelemetry(0, 0, 0)
		o.Heat, o.HeatTopK = false, 0
		return o
	}
	return armed(o)
}

// sameSchedule reports whether two results of one point differ only in the
// obs payloads (time series, heat and hot fragments, burn-rate verdict):
// arming obs must not change what is simulated.
func sameSchedule(a, b any) bool {
	strip := func(v any) any {
		switch r := v.(type) {
		case gamma.RunResult:
			r.Series, r.Heat, r.HotFragments = nil, nil, nil
			return r
		case gamma.ServeResult:
			r.Series, r.Heat, r.HotFragments, r.Serve.Burn = nil, nil, nil, nil
			return r
		}
		return v
	}
	return reflect.DeepEqual(strip(a), strip(b))
}

// correlationWindow mirrors experiments' generator window for a correlation
// level: tightly correlated attributes use a window of card/1000.
func correlationWindow(c experiments.Correlation, card int) int {
	if c != experiments.HighCorrelation {
		return 0
	}
	if w := card / 1000; w > 1 {
		return w
	}
	return 1
}

// magicNote renders MAGIC's construction facts in the experiments package's
// note format, so traced and untraced outputs compare byte for byte.
func magicNote(m *core.MAGICPlacement) string {
	plan := m.Plan()
	return fmt.Sprintf(
		"magic: directory %v (%d entries, FC=%d, M=%.2f, Mi[A]=%.1f, Mi[B]=%.1f, %d rebalance swaps)",
		m.Dims(), m.Grid().NumCells(), plan.FC, plan.M,
		plan.Mi[storage.Unique1], plan.Mi[storage.Unique2], m.RebalanceSwaps())
}

// machineCounters reads the operator nodes' counters for the measurement
// window of the machine's last run: disk reads, buffer hits, buffer page
// requests and operators executed.
func machineCounters(m *gamma.Machine) (disk, hits, pages, ops float64) {
	for _, n := range m.Nodes {
		disk += float64(n.Disk.Reads())
		hits += float64(n.Pool.Hits())
		pages += float64(n.Pool.Hits() + n.Pool.Misses())
		ops += float64(n.OpsExecuted)
	}
	return disk, hits, pages, ops
}

// writeTrace stores the spans of a traced run as JSON.
func writeTrace(path, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
