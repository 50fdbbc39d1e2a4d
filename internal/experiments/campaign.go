package experiments

// The scenario driver: every campaign of the evaluation — the closed MPL
// sweep, the open-system load sweep, degraded mode, shared scans,
// elasticity and scale-out — is figures x strategies x a sweep axis of
// tagged variants x a load axis on the simulated Gamma machine, and
// RunScenario is the one place that turns that cross product into harness
// jobs and back into results. Expensive immutable inputs are built once,
// before any measured job runs: one storage.GenerateWisconsin per
// distinct (cardinality, correlation window, seed), serially, then one
// BuildPlacement per (figure, strategy, machine size), as jobs on the
// worker pool. Storage images are laid out lazily and shared: the jobs of
// one (relation, placement, layout-shaping config) key share one
// gamma.Image, which the key's first job lays out and its last job drops.
// Every job builds its own gamma machine over those shared read-only
// inputs and uses the scenario seed, so output is byte-identical whatever
// the worker count.

import (
	"errors"
	"fmt"
	"io"
	"path"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gamma"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// CampaignOptions configure the concurrent execution of a scenario.
type CampaignOptions struct {
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// JobTimeout is the wall-clock budget of one run; <= 0 disables it. A
	// blown budget becomes a manifest failure record, not a crashed
	// campaign.
	JobTimeout time.Duration
	// Progress receives live per-job progress/ETA lines; nil disables.
	Progress io.Writer
	// Label names the campaign in the manifest and progress lines.
	Label string
	// Hub, when non-nil, exposes telemetry samplers for live /metrics
	// scraping. Each run's sampler registers under its job ID as the run
	// completes and stays registered, so a scrape shows every finished
	// run's final series.
	Hub *obs.Hub
}

// Scenario is one campaign: each figure's strategies, crossed with the
// sweep axis and the load axis.
type Scenario struct {
	Figures []Figure
	// Options generate each figure's relation, plan the placements whose
	// construction notes the results carry, and apply to every run of an
	// empty sweep.
	Options Options
	// Open, when set, makes the load axis its offered loads (Open.Lambdas)
	// under an open arrival process; otherwise the load axis is each
	// variant's closed MPL sweep (Options.MPLs).
	Open *OpenOptions
	// Sweep is the variant axis. Empty runs Options once, untagged.
	Sweep []Variant
	// Mix, when set, derives every run's workload from the figure's mix.
	// Placements are still planned from the figure's own mix.
	Mix func(workload.Mix) workload.Mix
	// Elastic, when set, arms its membership schedule on every machine;
	// each transition restages the strategy's own placement at the new
	// node count.
	Elastic *ElasticOptions
}

// Variant is one tagged point of a scenario's sweep axis.
type Variant struct {
	// Tag names the variant in job IDs, e.g. "k1" in fig8a/magic/k1/mpl4.
	Tag string
	// Level is the swept quantity the variant's table prints: failed
	// disks, cluster size or processor count (1 for sharing on).
	Level int
	// Options replace the scenario's options for the variant's runs:
	// the machine size (placements are planned at it), the MPL sweep,
	// faults, sharing, the machine config. The relation is the
	// scenario's.
	Options Options
}

// ScenarioPoint is one measured (figure, strategy, variant, load) run.
type ScenarioPoint struct {
	ID       string
	Strategy string
	Variant  int     // index into the scenario's sweep
	MPL      int     // closed-loop load; 0 under an open arrival process
	Lambda   float64 // offered load in q/s; 0 in closed loop
	// Result is a closed-loop run's measurement, Serve an open one's.
	Result gamma.RunResult
	Serve  gamma.ServeResult
}

// ScenarioFigure holds one figure's measured points in canonical order
// (strategies in figure order, then variants, then loads).
type ScenarioFigure struct {
	Figure Figure
	// Notes records construction facts the paper reports alongside the
	// curves, from the placements planned with Scenario.Options.
	Notes  []string
	Points []ScenarioPoint
}

// ScenarioResult holds a completed scenario plus the harness manifest.
type ScenarioResult struct {
	// Scenario is the scenario as run, defaults applied.
	Scenario Scenario
	Figures  []ScenarioFigure
	Manifest harness.Manifest
}

// JobDetail is the payload RunScenario attaches to each job's manifest
// report.
type JobDetail struct {
	// Arrival and OfferedQPS record an open-system job's workload.
	Arrival    string  `json:"arrival,omitempty"`
	OfferedQPS float64 `json:"offered_qps,omitempty"`
	// FaultEvents counts the injected faults the run applied.
	FaultEvents int `json:"fault_events,omitempty"`
	// TimeSeries and HotFragments are the run's telemetry snapshot and
	// hot-fragment report when those were armed.
	TimeSeries   []obs.SeriesData  `json:"time_series,omitempty"`
	HotFragments []obs.HotFragment `json:"hot_fragments,omitempty"`
	// Kernel counts the sim kernel's work over the whole run: events,
	// process switches, spawns and coroutine reuse. Zero for a failed job.
	Kernel sim.Stats `json:"kernel"`
}

// relKey identifies one generated relation; figures agreeing on all three
// fields share a single build.
type relKey struct {
	card   int
	window int
	seed   int64
}

// planKey identifies one placement: variants that keep the figure's
// machine size and config share the scenario's build.
type planKey struct {
	fig      int
	strategy string
	procs    int
	config   *gamma.Config
}

// planKeyOf is the key of figure fi's placement for strategy name under o.
func planKeyOf(fi int, name string, o Options) planKey {
	return planKey{fi, name, o.Processors, o.Config}
}

// imageKey identifies one storage image: the fields of a job's relation,
// placement and config that shape it. Variants that differ only in faults,
// sharing, telemetry or heat share one.
type imageKey struct {
	rel          *storage.Relation
	pl           core.Placement
	layout       storage.Layout
	chained      bool
	pagesPerDisk int
}

// imageEntry is one storage image shared by the jobs of its key. The
// build phase only counts the jobs; the first job to acquire the
// entry lays the image out (concurrent first users wait for that one
// layout, and a layout error or panic reaches them all), and the last
// release drops it, so about one image per worker stays alive.
type imageEntry struct {
	layOut func() (*gamma.Image, error)

	mu       sync.Mutex
	jobs     int // jobs that have not released the entry yet
	img      *gamma.Image
	err      error
	panicked any // the layout's panic value, raised again in every user
}

// acquire returns the entry's image, laying it out on first use.
func (e *imageEntry) acquire() (*gamma.Image, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.img == nil && e.err == nil && e.panicked == nil {
		func() {
			defer func() { e.panicked = recover() }()
			e.img, e.err = e.layOut()
		}()
	}
	if e.panicked != nil {
		panic(e.panicked)
	}
	return e.img, e.err
}

// release ends one job's use of the entry; the last drops the image.
func (e *imageEntry) release() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.jobs--; e.jobs == 0 {
		e.img = nil
	}
}

// RunScenario executes every (figure, strategy, variant, load) run of the
// scenario on the harness worker pool and reassembles the results in
// canonical order (figures as given, strategies in figure order, variants
// in sweep order, loads in sweep order) regardless of completion order.
// A placement build that fails or panics aborts the scenario before any
// measured job runs, with the first failing build's error in that order;
// the returned manifest is the measured jobs' alone. Job failures (errors,
// panics, timeouts) become manifest failure records, the surviving points
// are returned, and the combined failure surfaces as the returned error.
func RunScenario(sc Scenario, copts CampaignOptions) (ScenarioResult, error) {
	sc.Options = sc.Options.withDefaults()
	if sc.Open != nil {
		o := sc.Open.withDefaults()
		sc.Open = &o
	}
	if len(sc.Sweep) == 0 {
		sc.Sweep = []Variant{{Options: sc.Options}}
	} else {
		sc.Sweep = append([]Variant(nil), sc.Sweep...)
		for i := range sc.Sweep {
			sc.Sweep[i].Options = sc.Sweep[i].Options.withDefaults()
		}
	}
	// loads is a variant's load axis: closed MPLs, or the open offered loads.
	loads := func(v Variant) []ScenarioPoint {
		var out []ScenarioPoint
		if sc.Open != nil {
			for _, l := range sc.Open.Lambdas {
				out = append(out, ScenarioPoint{Lambda: l})
			}
			return out
		}
		for _, m := range v.Options.MPLs {
			out = append(out, ScenarioPoint{MPL: m})
		}
		return out
	}

	// Build phase: everything built here is read-only for the rest of the
	// scenario. The relations are generated serially, then the placements
	// are built as jobs on the pool, before any measured job (see
	// buildPlacements). Storage images are not laid out here, only keyed:
	// the jobs lay each out on first use and drop it after the last, so
	// images never pile up before the pool starts.
	rels := map[relKey]*storage.Relation{}
	figRels := make([]*storage.Relation, len(sc.Figures))
	mixes := make([]workload.Mix, len(sc.Figures))
	var builds []placementBuild
	requested := map[planKey]bool{}
	request := func(fi int, name string, o Options) {
		key := planKeyOf(fi, name, o)
		if !requested[key] {
			requested[key] = true
			builds = append(builds, placementBuild{key, figRels[fi], mixes[fi], o})
		}
	}
	for fi, fig := range sc.Figures {
		card := sc.Options.Cardinality
		key := relKey{card, fig.Correlation.window(card), sc.Options.Seed}
		rel := rels[key]
		if rel == nil {
			rel = storage.GenerateWisconsin(storage.GenSpec{
				Cardinality: key.card, CorrelationWindow: key.window, Seed: key.seed,
			})
			rels[key] = rel
		}
		figRels[fi], mixes[fi] = rel, fig.Mix(card)
		for _, name := range fig.Strategies {
			request(fi, name, sc.Options)
		}
		for _, name := range fig.Strategies {
			for _, v := range sc.Sweep {
				request(fi, name, v.Options)
			}
		}
	}
	plans, err := sc.buildPlacements(builds, copts.Workers)
	if err != nil {
		return ScenarioResult{}, err
	}
	plan := func(fi int, name string, o Options) core.Placement {
		pl, ok := plans[planKeyOf(fi, name, o)]
		if !ok {
			panic(fmt.Sprintf("experiments: figure %s: no %s placement at %d processors was built",
				sc.Figures[fi].ID, name, o.Processors))
		}
		return pl
	}
	images := map[imageKey]*imageEntry{}
	out := ScenarioResult{Scenario: sc}
	var jobs []harness.Job
	for fi, fig := range sc.Figures {
		rel, mix := figRels[fi], mixes[fi]
		runMix := mix
		if sc.Mix != nil {
			runMix = sc.Mix(mix)
		}
		sf := ScenarioFigure{Figure: fig}
		for _, name := range fig.Strategies {
			if note := magicNote(plan(fi, name, sc.Options)); note != "" {
				sf.Notes = append(sf.Notes, note)
			}
		}
		for _, name := range fig.Strategies {
			for vi, v := range sc.Sweep {
				pl := plan(fi, name, v.Options)
				cfg := ConfigFor(v.Options)
				if sc.Elastic != nil {
					// Each transition rebuilds this strategy's placement at
					// the new member count.
					cfg.Elastic = &gamma.ElasticSpec{
						Events:          sc.Elastic.events(),
						RatePagesPerSec: sc.Elastic.MigrateRate,
						Rebuild: func(rel *storage.Relation, procs int) (core.Placement, error) {
							o := v.Options
							o.Processors = procs
							return BuildPlacement(name, rel, mix, o)
						},
					}
				}
				ik := imageKey{rel, pl, cfg.Layout, cfg.ChainedReplicas, cfg.HW.PagesPerDisk()}
				entry := images[ik]
				if entry == nil {
					// Only the fields that shape the image, so one
					// variant's run-time specs cannot fail another's layout.
					layoutCfg := gamma.Config{HW: cfg.HW, Layout: cfg.Layout, ChainedReplicas: cfg.ChainedReplicas}
					entry = &imageEntry{layOut: func() (*gamma.Image, error) {
						return gamma.NewImage(rel, pl, layoutCfg)
					}}
					images[ik] = entry
				}
				for _, pt := range loads(v) {
					pt.Strategy, pt.Variant = name, vi
					load := fmt.Sprintf("mpl%d", pt.MPL)
					if sc.Open != nil {
						load = fmt.Sprintf("%s%g", sc.Open.Arrival, pt.Lambda)
					}
					pt.ID = path.Join("fig"+fig.ID, name, v.Tag, load)
					sf.Points = append(sf.Points, pt)
					entry.jobs++
					jobs = append(jobs, harness.Job{
						ID:   pt.ID,
						Seed: sc.Options.Seed,
						Run:  sc.job(pt, entry, cfg, runMix, v.Options, copts.Hub),
					})
				}
			}
		}
		out.Figures = append(out.Figures, sf)
	}

	values, manifest, err := harness.Execute(jobs, harness.Options{
		Workers:    copts.Workers,
		JobTimeout: copts.JobTimeout,
		Progress:   copts.Progress,
		Label:      copts.Label,
	})
	if err != nil {
		return ScenarioResult{}, err
	}
	out.Manifest = manifest
	j := 0
	for fi := range out.Figures {
		planned := out.Figures[fi].Points
		out.Figures[fi].Points = nil
		for _, pt := range planned {
			var d JobDetail
			if sc.Open != nil {
				d.Arrival, d.OfferedQPS = sc.Open.Arrival.String(), pt.Lambda
			}
			v, ok := values[j].(jobValue)
			switch res := v.result.(type) {
			case gamma.RunResult:
				pt.Result = res
				d.FaultEvents, d.TimeSeries, d.HotFragments = len(res.FaultLog), res.Series, res.HotFragments
			case gamma.ServeResult:
				pt.Serve = res
				d.FaultEvents, d.TimeSeries, d.HotFragments = len(res.FaultLog), res.Series, res.HotFragments
			}
			d.Kernel = v.kernel
			if ok {
				out.Figures[fi].Points = append(out.Figures[fi].Points, pt)
			}
			if ok || d.Arrival != "" {
				out.Manifest.Reports[j].Detail = d
			}
			j++
		}
	}
	return out, manifest.Err()
}

// placementBuild is one placement the scenario needs: its key, and the
// relation, planning mix and options it is built from.
type placementBuild struct {
	key planKey
	rel *storage.Relation
	mix workload.Mix
	o   Options
}

// buildPlacements builds the placements as jobs on a pool of the given
// size, with no timeout and no progress lines, and returns them by key.
// The builds are in the order the scenario first asks for each key, which
// one worker keeps. If any build fails, no placement is returned, and the
// error is that of the first failing build in that order, as a serial
// loop would return it: a build's error, or its recovered panic.
func (sc Scenario) buildPlacements(builds []placementBuild, workers int) (map[planKey]core.Placement, error) {
	errs := make([]error, len(builds))
	jobs := make([]harness.Job, len(builds))
	for i, b := range builds {
		jobs[i] = harness.Job{
			ID: path.Join("fig"+sc.Figures[b.key.fig].ID, b.key.strategy, "placement"),
			Run: func() (any, error) {
				pl, err := BuildPlacement(b.key.strategy, b.rel, b.mix, b.o)
				errs[i] = err
				return pl, err
			},
		}
	}
	values, manifest, err := harness.Execute(jobs, harness.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	plans := make(map[planKey]core.Placement, len(builds))
	for i, rep := range manifest.Reports {
		if rep.Failed() {
			err := errs[i]
			if err == nil { // the build panicked
				err = errors.New(rep.Error)
			}
			return nil, fmt.Errorf("figure %s: %w", sc.Figures[builds[i].key.fig].ID, err)
		}
		plans[builds[i].key] = values[i].(core.Placement)
	}
	return plans, nil
}

// jobValue is what a scenario job hands back through the harness.
type jobValue struct {
	result any // gamma.RunResult or gamma.ServeResult
	// kernel is the machine engine's counters at the end of the run. It
	// travels beside the result, not in it, so that the results of runs
	// that differ only in host-side work (telemetry arming adds a sampler
	// process) still compare equal.
	kernel sim.Stats
}

// job returns the harness job body for one point. The job constructs its
// own machine over the entry's shared read-only image, so no mutable state
// crosses workers, and releases the entry however it ends (an error, a
// panic, or a run that finishes after its timeout).
func (sc Scenario) job(pt ScenarioPoint, entry *imageEntry, cfg gamma.Config,
	mix workload.Mix, opts Options, hub *obs.Hub) func() (any, error) {
	return func() (any, error) {
		defer entry.release()
		img, err := entry.acquire()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pt.ID, err)
		}
		machine, err := gamma.New(img, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pt.ID, err)
		}
		defer machine.Close()
		var res any
		if o := sc.Open; o != nil {
			res, err = machine.RunServe(mix, gamma.ServeSpec{
				Arrival:        serve.ArrivalSpec{Kind: o.Arrival, RateQPS: pt.Lambda},
				Tenants:        serve.DefaultTenants(o.Tenants),
				MaxInService:   o.MaxInService,
				MaxQueue:       o.MaxQueue,
				SLOms:          o.SLOms,
				WarmupQueries:  opts.WarmupQueries,
				MeasureQueries: opts.MeasureQueries,
				MaxSimTime:     o.MaxSimTime,
				Seed:           opts.Seed,
			})
		} else {
			res, err = machine.Run(mix, gamma.RunSpec{
				MPL:            pt.MPL,
				WarmupQueries:  opts.WarmupQueries,
				MeasureQueries: opts.MeasureQueries,
				Seed:           opts.Seed,
			})
		}
		if errors.Is(err, sim.ErrPanicked) {
			panic(fmt.Errorf("%s: %w", pt.ID, err)) // a simulated process panicked
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pt.ID, err)
		}
		// Register after the run: the run's reset builds the sampler.
		if hub != nil && machine.Telemetry != nil {
			hub.Register(pt.ID, machine.Telemetry)
		}
		return jobValue{res, machine.Eng.Stats()}, nil
	}
}

// magicNote describes a MAGIC placement's construction ("" for any other
// strategy).
func magicNote(pl core.Placement) string {
	m, ok := pl.(*core.MAGICPlacement)
	if !ok {
		return ""
	}
	plan := m.Plan()
	return fmt.Sprintf(
		"magic: directory %v (%d entries, FC=%d, M=%.2f, Mi[A]=%.1f, Mi[B]=%.1f, %d rebalance swaps)",
		m.Dims(), m.Grid().NumCells(), plan.FC, plan.M,
		plan.Mi[storage.Unique1], plan.Mi[storage.Unique2], m.RebalanceSwaps())
}

// Outcomes sums the outcome tallies of every point, closed-loop and open
// (a point carries only one of the two, the other tally is zero).
func (r ScenarioResult) Outcomes() exec.Outcomes {
	var o exec.Outcomes
	for _, f := range r.Figures {
		for _, p := range f.Points {
			o.Add(p.Result.Outcomes)
			o.Add(p.Serve.Serve.Outcomes)
		}
	}
	return o
}

// Campaign holds the completed figures of a closed-loop campaign plus the
// harness run manifest.
type Campaign struct {
	Figures  []FigureResult
	Manifest harness.Manifest
}

// RunCampaign runs the figures' closed MPL sweeps: RunScenario over the
// figures and opts, reported per figure.
func RunCampaign(figs []Figure, opts Options, copts CampaignOptions) (Campaign, error) {
	res, err := RunScenario(Scenario{Figures: figs, Options: opts}, copts)
	return Campaign{Figures: res.Closed(), Manifest: res.Manifest}, err
}

// Closed reports each figure's closed-loop points (the first variant's).
func (r ScenarioResult) Closed() []FigureResult {
	var out []FigureResult
	for _, f := range r.Figures {
		fr := FigureResult{Figure: f.Figure, Options: r.Scenario.Options, Notes: f.Notes}
		for _, p := range f.Points {
			if p.Variant == 0 {
				fr.Points = append(fr.Points, Point{Strategy: p.Strategy, MPL: p.MPL, Result: p.Result})
			}
		}
		out = append(out, fr)
	}
	return out
}
