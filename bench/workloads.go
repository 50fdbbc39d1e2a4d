package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/gamma"
	"repro/internal/harness"
	"repro/internal/serve"
)

// workload is one batch run of the simulator: a figure list driven through
// experiments.RunCampaign (closed loop) or experiments.RunOpenSystem (open
// loop, when Open is set). Every run of a workload sets up its relations and
// placements, then simulates one harness job per (figure, strategy, load)
// point, so all four workloads exercise every layer and differ in which one
// dominates the wall time.
type workload struct {
	Name    string
	Figures []string
	// Opts scales the run; the seed is stamped per run.
	Opts    experiments.Options
	Open    *experiments.OpenOptions
	Workers int
}

// workloads are sized so that one run takes 1.5–2.5 s on a 2-core host:
// each measurement repeats a workload in fresh processes and reports the
// median, and the whole campaign of repetitions must fit the benchmark's
// time budget. Paper-scale figure 8a (a 236×242 MAGIC directory costing
// ~3.6 s to place) does not fit; figures 10a and 10b carry the same
// placement and storage-build work at paper scale in a fraction of it.
var workloads = []workload{
	{
		Name:    "setup-paper",
		Figures: []string{"10a", "10b"},
		Opts:    experiments.Options{Cardinality: 100000, Processors: 32, MPLs: []int{1}, WarmupQueries: 10, MeasureQueries: 40},
		Workers: 1,
	},
	{
		Name:    "closed-paper-10a",
		Figures: []string{"10a"},
		Opts:    experiments.Options{Cardinality: 100000, Processors: 32, MPLs: []int{64}, WarmupQueries: 300, MeasureQueries: 1500},
		Workers: 1,
	},
	{
		Name:    "quick-campaign",
		Figures: figureIDs(),
		Opts:    experiments.Options{Cardinality: 2000, Processors: 32, MPLs: []int{1, 8, 32, 64}, WarmupQueries: 10, MeasureQueries: 50},
		Workers: 2,
	},
	{
		Name:    "open-armed-8a",
		Figures: []string{"8a"},
		Opts:    armed(experiments.Options{Cardinality: 20000, Processors: 32, WarmupQueries: 60, MeasureQueries: 600}),
		Open: &experiments.OpenOptions{
			Arrival:      serve.Poisson,
			Lambdas:      []float64{100, 400, 800},
			Tenants:      4,
			SLOms:        1000,
			MaxInService: 64,
		},
		Workers: 1,
	},
}

// armed arms 250 ms telemetry windows and fragment heat accounting.
func armed(o experiments.Options) experiments.Options {
	o.ArmTelemetry(250, 0, 0)
	o.ArmHeat(0)
	return o
}

func figureIDs() []string {
	var ids []string
	for _, f := range experiments.Figures() {
		ids = append(ids, f.ID)
	}
	return ids
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// options returns the workload's experiment options at the given seed.
func (w workload) options(seed int64) experiments.Options {
	o := w.Opts
	o.Seed, o.SeedSet = seed, true
	return o
}

func (w workload) figures() ([]experiments.Figure, error) {
	var figs []experiments.Figure
	for _, id := range w.Figures {
		f, err := experiments.FigureByID(id)
		if err != nil {
			return nil, err
		}
		figs = append(figs, f)
	}
	return figs, nil
}

// figureOutput is one figure's simulated output: MAGIC's construction
// notes and every measured point.
type figureOutput struct {
	ID     string                  `json:"id"`
	Notes  []string                `json:"notes,omitempty"`
	Closed []experiments.Point     `json:"closed,omitempty"`
	Open   []experiments.OpenPoint `json:"open,omitempty"`
}

// output is everything a workload run simulates. Its SHA-256 over the JSON
// encoding is the run's output digest: two runs, commits or execution
// paths produced identical simulated output exactly when digests match.
type output struct {
	Figures []figureOutput `json:"figures"`
}

func (o output) digest() (string, error) {
	b, err := json.Marshal(o)
	if err != nil {
		return "", fmt.Errorf("encoding output: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// simQueries counts the simulated query completions, warm-up included.
func (o output) simQueries(opts experiments.Options) int64 {
	var n int64
	for _, f := range o.Figures {
		for _, p := range f.Closed {
			n += int64(opts.WarmupQueries + p.Result.Completed)
		}
		for _, p := range f.Open {
			n += int64(opts.WarmupQueries) + p.Result.Serve.SLO.Completed
		}
	}
	return n
}

// invariants checks what must hold at any seed: every point of the sweep
// is present and completed its full measurement window without failures.
func (w workload) invariants(o output, opts experiments.Options) []string {
	var bad []string
	figs, err := w.figures()
	if err != nil {
		return []string{err.Error()}
	}
	if len(o.Figures) != len(figs) {
		return []string{fmt.Sprintf("%d figures in output, want %d", len(o.Figures), len(figs))}
	}
	for i, f := range figs {
		fo := o.Figures[i]
		if w.Open == nil {
			if want := len(f.Strategies) * len(opts.MPLs); len(fo.Closed) != want {
				bad = append(bad, fmt.Sprintf("fig %s: %d closed points, want %d", f.ID, len(fo.Closed), want))
			}
			for _, p := range fo.Closed {
				r := p.Result
				if r.Completed != opts.MeasureQueries || r.Outcomes.Total() != r.Outcomes.OK {
					bad = append(bad, fmt.Sprintf("fig %s/%s/mpl%d: %d of %d queries completed (%v)",
						f.ID, p.Strategy, p.MPL, r.Completed, opts.MeasureQueries, r.Outcomes))
				}
			}
			continue
		}
		if want := len(f.Strategies) * len(w.Open.Lambdas); len(fo.Open) != want {
			bad = append(bad, fmt.Sprintf("fig %s: %d open points, want %d", f.ID, len(fo.Open), want))
		}
		for _, p := range fo.Open {
			s := p.Result.Serve
			if !s.Warmed || s.HitMaxSimTime || s.SLO.Completed < int64(opts.MeasureQueries) || s.SLO.Failed != 0 {
				bad = append(bad, fmt.Sprintf("fig %s/%s/λ%g: warmed=%v hit-max-time=%v completed=%d failed=%d",
					f.ID, p.Strategy, p.Lambda, s.Warmed, s.HitMaxSimTime, s.SLO.Completed, s.SLO.Failed))
			}
		}
	}
	return bad
}

// runStats are the host-side measurements of one untraced run.
type runStats struct {
	WallS     float64
	SetupS    float64
	JobPhaseS float64
	Manifest  harness.Manifest
}

// run executes the workload through the public campaign entry point, timing
// the call from outside. Set-up is everything before the harness pool
// starts: the manifest's wall time covers exactly the job phase.
func (w workload) run(seed int64) (output, runStats, error) {
	figs, err := w.figures()
	if err != nil {
		return output{}, runStats{}, err
	}
	opts := w.options(seed)
	copts := experiments.CampaignOptions{Workers: w.Workers, Label: w.Name}
	var out output
	var st runStats
	start := time.Now()
	if w.Open == nil {
		c, err := experiments.RunCampaign(figs, opts, copts)
		st.WallS = time.Since(start).Seconds()
		if err != nil {
			return output{}, st, err
		}
		st.Manifest = c.Manifest
		for _, fr := range c.Figures {
			out.Figures = append(out.Figures, figureOutput{ID: fr.Figure.ID, Notes: fr.Notes, Closed: fr.Points})
		}
	} else {
		c, err := experiments.RunOpenSystem(figs, opts, *w.Open, copts)
		st.WallS = time.Since(start).Seconds()
		if err != nil {
			return output{}, st, err
		}
		st.Manifest = c.Manifest
		for _, fr := range c.Figures {
			out.Figures = append(out.Figures, figureOutput{ID: fr.Figure.ID, Notes: fr.Notes, Open: fr.Points})
		}
	}
	st.JobPhaseS = st.Manifest.WallMS / 1000
	st.SetupS = st.WallS - st.JobPhaseS
	return out, st, nil
}

// closedSpec and serveSpec are the per-job run specs RunCampaign and
// RunOpenSystem use; the traced run calls the machine with the same ones.
func closedSpec(opts experiments.Options, mpl int) gamma.RunSpec {
	return gamma.RunSpec{
		MPL:            mpl,
		WarmupQueries:  opts.WarmupQueries,
		MeasureQueries: opts.MeasureQueries,
		Seed:           opts.Seed,
	}
}

func serveSpec(opts experiments.Options, oo experiments.OpenOptions, lambda float64) gamma.ServeSpec {
	return gamma.ServeSpec{
		Arrival:        serve.ArrivalSpec{Kind: oo.Arrival, RateQPS: lambda},
		Tenants:        serve.DefaultTenants(oo.Tenants),
		MaxInService:   oo.MaxInService,
		MaxQueue:       oo.MaxQueue,
		SLOms:          oo.SLOms,
		WarmupQueries:  opts.WarmupQueries,
		MeasureQueries: opts.MeasureQueries,
		MaxSimTime:     oo.MaxSimTime,
		Seed:           opts.Seed,
	}
}
