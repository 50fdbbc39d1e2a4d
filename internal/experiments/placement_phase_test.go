package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gamma"
)

// placementPhaseOptions is a small closed-loop scale for the build-phase
// tests: every strategy, two loads, a few dozen measured queries.
func placementPhaseOptions() Options {
	return Options{Cardinality: 2000, Processors: 8, MPLs: []int{1, 4},
		WarmupQueries: 10, MeasureQueries: 40, Seed: 1}
}

// figuresByID looks up the paper figures with the given IDs.
func figuresByID(t *testing.T, ids ...string) []Figure {
	t.Helper()
	var figs []Figure
	for _, id := range ids {
		fig, err := FigureByID(id)
		if err != nil {
			t.Fatal(err)
		}
		figs = append(figs, fig)
	}
	return figs
}

// The placements are built on the worker pool. With two figures and a
// sweep variant at another processor count, every (figure, strategy)
// needs two placements, and the measured points, the MAGIC notes and the
// kernel counters must not depend on how many builds ran at once or in
// which order they finished. The manifest holds the measured jobs only.
func TestPlacementPhaseIdenticalAcrossWorkerCounts(t *testing.T) {
	opts := placementPhaseOptions()
	small := opts
	small.Processors = 4
	sc := Scenario{
		Figures: figuresByID(t, "8a", "12b"),
		Options: opts,
		Sweep:   []Variant{{Tag: "p8", Level: 8, Options: opts}, {Tag: "p4", Level: 4, Options: small}},
	}
	run := func(workers int) (ScenarioResult, []any) {
		res, err := RunScenario(sc, CampaignOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var details []any
		for _, rep := range res.Manifest.Reports {
			details = append(details, rep.Detail)
		}
		return res, details
	}
	serial, serialDetails := run(1)
	if want := 2 * 3 * 2 * len(opts.MPLs); serial.Manifest.Jobs != want {
		t.Fatalf("manifest jobs = %d, want the %d measured jobs", serial.Manifest.Jobs, want)
	}
	for _, f := range serial.Figures {
		if len(f.Notes) != 1 || !strings.HasPrefix(f.Notes[0], "magic: directory") {
			t.Fatalf("fig %s notes = %q, want one MAGIC note", f.Figure.ID, f.Notes)
		}
	}
	for _, workers := range []int{2, 4} {
		res, details := run(workers)
		for i, f := range res.Figures {
			// Figure holds its mix function, which reflect never finds equal.
			want := serial.Figures[i]
			if !reflect.DeepEqual(f.Notes, want.Notes) || !reflect.DeepEqual(f.Points, want.Points) {
				t.Fatalf("fig %s: points or notes differ between 1 and %d workers", f.Figure.ID, workers)
			}
		}
		if !reflect.DeepEqual(details, serialDetails) {
			t.Fatalf("job details (kernel counters) differ between 1 and %d workers", workers)
		}
	}
}

// A placement build that fails aborts the scenario before any measured job
// runs, with the error of the first failing build in the order the
// scenario asks for them, whichever build fails first on the pool.
func TestPlacementPhaseErrorAbortsBeforeJobs(t *testing.T) {
	figs := figuresByID(t, "8a", "8b", "9")
	figs[1].Strategies = []string{StrategyMAGIC, "bogus-b"}
	figs[2].Strategies = []string{"bogus-c"}
	sc := Scenario{Figures: figs, Options: placementPhaseOptions()}
	var first string
	for _, workers := range []int{1, 4} {
		var progress bytes.Buffer
		res, err := RunScenario(sc, CampaignOptions{Workers: workers, Progress: &progress})
		if err == nil {
			t.Fatalf("workers=%d: a scenario with an unknown strategy ran", workers)
		}
		if !strings.HasPrefix(err.Error(), `figure 8b: core: unknown strategy "bogus-b"`) {
			t.Fatalf("workers=%d: error %q, want figure 8b's unknown strategy", workers, err)
		}
		if first == "" {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("workers=%d: error %q, want %q as at 1 worker", workers, err, first)
		}
		if progress.Len() != 0 || res.Manifest.Jobs != 0 || res.Figures != nil {
			t.Fatalf("workers=%d: measured jobs ran after a failed build:\n%s", workers, progress.String())
		}
	}
}

// A placement build that panics becomes its figure's error, recovered on
// the pool like any job's panic, and no measured job runs. Here a variant's
// zero machine config makes the planning estimate divide by zero pages.
func TestPlacementPhasePanicBecomesFigureError(t *testing.T) {
	opts := placementPhaseOptions()
	broken := opts
	broken.Config = &gamma.Config{}
	sc := Scenario{
		Figures: figuresByID(t, "8a"),
		Options: opts,
		Sweep:   []Variant{{Tag: "ok", Options: opts}, {Tag: "broken", Options: broken}},
	}
	for _, workers := range []int{1, 4} {
		var progress bytes.Buffer
		_, err := RunScenario(sc, CampaignOptions{Workers: workers, Progress: &progress})
		if err == nil || !strings.HasPrefix(err.Error(), "figure 8a: panic: runtime error: integer divide by zero") {
			t.Fatalf("workers=%d: error %v, want figure 8a's recovered panic", workers, err)
		}
		if progress.Len() != 0 {
			t.Fatalf("workers=%d: measured jobs ran after a panicked build:\n%s", workers, progress.String())
		}
	}
}
