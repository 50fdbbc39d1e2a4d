package experiments

// Campaign orchestration: a figure list decomposes into a job set of
// (figure, strategy, MPL) simulation runs that internal/harness executes
// on a bounded worker pool. Expensive immutable inputs are shared across
// jobs through a build cache — one storage.GenerateWisconsin per distinct
// (cardinality, correlation window, seed) and one BuildPlacement per
// (figure, strategy) — instead of one per MPL point as the old serial loop
// effectively paid via repeated figure runs. Every job builds its own
// gamma machine from those shared read-only inputs and uses the same seeds
// as the serial path, so campaign output is byte-identical whatever the
// worker count.

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/gamma"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/workload"
)

// CampaignOptions configure the concurrent execution of a set of figures.
type CampaignOptions struct {
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// JobTimeout is the wall-clock budget of one (strategy, MPL) run;
	// <= 0 disables it. A blown budget becomes a manifest failure record,
	// not a crashed campaign.
	JobTimeout time.Duration
	// Progress receives live per-job progress/ETA lines; nil disables.
	Progress io.Writer
	// Label names the campaign in the manifest and progress lines.
	Label string
	// IsTransient classifies job errors that warrant the harness's single
	// automatic same-seed retry (see harness.Options.IsTransient).
	IsTransient func(error) bool
	// Hub, when non-nil, exposes telemetry samplers for live /metrics
	// scraping (open-system campaigns with telemetry armed). Each point's
	// sampler registers under the job ID as it completes and stays
	// registered, so a scrape shows every finished point's final series.
	Hub *obs.Hub
}

// Campaign holds the completed figures plus the harness run manifest.
type Campaign struct {
	Figures  []FigureResult
	Manifest harness.Manifest
}

// relKey identifies one generated relation; figures agreeing on all three
// fields share a single build.
type relKey struct {
	card   int
	window int
	seed   int64
}

// relationCache shares generated Wisconsin relations across figures. The
// relations are read-only after generation (the thread-safety contract the
// whole campaign relies on).
type relationCache map[relKey]*storage.Relation

func (c relationCache) get(card, window int, seed int64) *storage.Relation {
	key := relKey{card, window, seed}
	if rel, ok := c[key]; ok {
		return rel
	}
	rel := storage.GenerateWisconsin(storage.GenSpec{
		Cardinality:       card,
		CorrelationWindow: window,
		Seed:              seed,
	})
	c[key] = rel
	return rel
}

// figureBuild carries one figure's shared immutable inputs: the relation,
// the mix, and one placement per strategy.
type figureBuild struct {
	fig        Figure
	rel        *storage.Relation
	mix        workload.Mix
	placements []core.Placement
	notes      []string
}

// buildFigure constructs the figure's placements (and MAGIC's construction
// notes, in strategy order, exactly as the serial path recorded them).
func buildFigure(fig Figure, rels relationCache, opts Options) (figureBuild, error) {
	fb := figureBuild{
		fig: fig,
		rel: rels.get(opts.Cardinality, fig.Correlation.window(opts.Cardinality), opts.Seed),
		mix: fig.Mix(opts.Cardinality),
	}
	for _, name := range fig.Strategies {
		pl, err := BuildPlacement(name, fb.rel, fb.mix, opts)
		if err != nil {
			return fb, fmt.Errorf("figure %s: %w", fig.ID, err)
		}
		if m, ok := pl.(*core.MAGICPlacement); ok {
			dims := m.Dims()
			plan := m.Plan()
			fb.notes = append(fb.notes, fmt.Sprintf(
				"magic: directory %v (%d entries, FC=%d, M=%.2f, Mi[A]=%.1f, Mi[B]=%.1f, %d rebalance swaps)",
				dims, m.Grid().NumCells(), plan.FC, plan.M,
				plan.Mi[storage.Unique1], plan.Mi[storage.Unique2], m.RebalanceSwaps()))
		}
		fb.placements = append(fb.placements, pl)
	}
	return fb, nil
}

// pointJob builds the harness job for one (figure, strategy, MPL) run. The
// job constructs its own machine from the shared relation and placement so
// no mutable state crosses workers, and runs with the same seed the serial
// path uses.
func pointJob(fb figureBuild, strategy string, pl core.Placement, mpl int, cfg gamma.Config, opts Options) harness.Job {
	return harness.Job{
		ID:   fmt.Sprintf("fig%s/%s/mpl%d", fb.fig.ID, strategy, mpl),
		Seed: opts.Seed,
		Run: func() (any, error) {
			machine, err := gamma.Build(fb.rel, pl, cfg)
			if err != nil {
				return nil, fmt.Errorf("figure %s/%s: %w", fb.fig.ID, strategy, err)
			}
			defer machine.Close()
			res, err := machine.Run(fb.mix, gamma.RunSpec{
				MPL:            mpl,
				WarmupQueries:  opts.WarmupQueries,
				MeasureQueries: opts.MeasureQueries,
				Seed:           opts.Seed,
			})
			if err != nil {
				return nil, fmt.Errorf("figure %s/%s MPL %d: %w", fb.fig.ID, strategy, mpl, err)
			}
			return res, nil
		},
	}
}

// RunCampaign executes every (figure, strategy, MPL) combination of the
// figure list on the harness worker pool and reassembles the results in
// canonical order (figures as given, strategies in figure order, MPLs in
// sweep order) regardless of completion order. Placement-construction
// errors abort the campaign before any job runs; job failures (errors,
// panics, timeouts) become manifest failure records, the surviving points
// are returned, and the combined failure surfaces as the returned error.
func RunCampaign(figs []Figure, opts Options, copts CampaignOptions) (Campaign, error) {
	opts = opts.withDefaults()
	cfg := ConfigFor(opts)

	// Build phase, serial: generate each distinct relation once and each
	// placement once per (figure, strategy). Everything built here is
	// read-only for the rest of the campaign.
	rels := relationCache{}
	builds := make([]figureBuild, 0, len(figs))
	for _, fig := range figs {
		fb, err := buildFigure(fig, rels, opts)
		if err != nil {
			return Campaign{}, err
		}
		builds = append(builds, fb)
	}

	var jobs []harness.Job
	for _, fb := range builds {
		for si, name := range fb.fig.Strategies {
			for _, mpl := range opts.MPLs {
				jobs = append(jobs, pointJob(fb, name, fb.placements[si], mpl, cfg, opts))
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
		return Campaign{}, err
	}

	out := Campaign{Manifest: manifest}
	j := 0
	for _, fb := range builds {
		fr := FigureResult{Figure: fb.fig, Options: opts, Notes: fb.notes}
		for _, name := range fb.fig.Strategies {
			for _, mpl := range opts.MPLs {
				if v := values[j]; v != nil {
					res := v.(gamma.RunResult)
					out.Manifest.Reports[j].FaultEvents = len(res.FaultLog)
					out.Manifest.Reports[j].HotFragments = res.HotFragments
					fr.Points = append(fr.Points, Point{
						Strategy: name, MPL: mpl, Result: res,
					})
				}
				j++
			}
		}
		out.Figures = append(out.Figures, fr)
	}
	return out, manifest.Err()
}

// Archive converts the campaign's figures into a serializable Archive.
func (c Campaign) Archive(label string, opts Options) Archive {
	a := Archive{Label: label, Options: opts}
	for _, fr := range c.Figures {
		a.Figures = append(a.Figures, fr.Archive())
	}
	return a
}
