package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/gamma"
	"repro/internal/serve"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3, 10, 7}, [3]float64{2, 4, 7}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
		if m := median(c.xs); m != c.want[1] {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.want[1])
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{40: 75, 100: 90, 104: 90, 200: 95, 1000: 99, 10000: 99.9} {
		if p, ok := tailPercentile(n); !ok || p != want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v", n, p, ok, want)
		}
	}
	for _, n := range []int{0, 10, 39} {
		if p, ok := tailPercentile(n); ok {
			t.Errorf("tailPercentile(%d) = %v, want none: fewer than ten samples beyond any percentile", n, p)
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if p := percentile(xs, 80); p != 4 {
		t.Errorf("percentile 80 = %v, want 4", p)
	}
}

func TestVerdict(t *testing.T) {
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 10} }
	cases := []struct {
		name         string
		base, head   summary
		higherBetter bool
		want         string
	}{
		{"slower", tight(10), tight(12), false, verdictWorse},
		{"faster", tight(10), tight(8), false, verdictBetter},
		{"within bound", tight(10), tight(10.5), false, verdictUnchanged},
		{"throughput drop", tight(100), tight(80), true, verdictWorse},
		{"throughput gain", tight(100), tight(120), true, verdictBetter},
		{"noisy overlap", summary{Median: 10, Q1: 8, Q3: 12}, summary{Median: 11.5, Q1: 9, Q3: 13}, false, verdictUnresolved},
		{"noisy but apart", summary{Median: 10, Q1: 8, Q3: 12}, summary{Median: 20, Q1: 18, Q3: 22}, false, verdictWorse},
	}
	for _, c := range cases {
		if got := verdict(c.base, c.head, 0.1, c.higherBetter); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// mini is a quick closed-loop workload: 2 figures at 2000 tuples.
var mini = workload{
	Name:    "mini",
	Figures: []string{"8a", "10b"},
	Opts:    experiments.Options{Cardinality: 2000, Processors: 32, MPLs: []int{1, 8}, WarmupQueries: 10, MeasureQueries: 40},
	Workers: 1,
}

// miniOpen is the open-loop counterpart, with obs armed.
var miniOpen = workload{
	Name:    "mini-open",
	Figures: []string{"8a"},
	Opts:    armed(experiments.Options{Cardinality: 2000, Processors: 32, WarmupQueries: 10, MeasureQueries: 40}),
	Open: &experiments.OpenOptions{
		Arrival: serve.Poisson, Lambdas: []float64{100, 800}, Tenants: 4, SLOms: 1000, MaxInService: 64,
	},
	Workers: 1,
}

func digestOf(t *testing.T, w workload, traced bool) string {
	t.Helper()
	var out output
	if traced {
		tr, err := w.runTraced(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Problems) > 0 {
			t.Fatalf("traced %s: %v", w.Name, tr.Problems)
		}
		out = tr.Out
	} else {
		o, st, err := w.run(1)
		if err != nil {
			t.Fatal(err)
		}
		if st.SetupS <= 0 || st.JobPhaseS <= 0 || st.Manifest.Workers != w.Workers {
			t.Fatalf("%s: implausible timing %+v on %d workers", w.Name, st, st.Manifest.Workers)
		}
		out = o
	}
	if bad := w.invariants(out, w.options(1)); len(bad) > 0 {
		t.Fatalf("%s invariants: %v", w.Name, bad)
	}
	d, err := out.digest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMiniWorkloadDeterministic(t *testing.T) {
	first := digestOf(t, mini, false)
	if again := digestOf(t, mini, false); again != first {
		t.Errorf("second run digest %s, first %s", again, first)
	}
	two := mini
	two.Workers = 2
	if d := digestOf(t, two, false); d != first {
		t.Errorf("2-worker digest %s, 1-worker %s", d, first)
	}
}

func TestTracedEqualsUntraced(t *testing.T) {
	for _, w := range []workload{mini, miniOpen} {
		plain, traced := digestOf(t, w, false), digestOf(t, w, true)
		if plain != traced {
			t.Errorf("%s: traced digest %s, untraced %s", w.Name, traced, plain)
		}
	}
}

func TestTracedLayers(t *testing.T) {
	tr, err := miniOpen.runTraced(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range perLayer {
		v, ok := tr.Layers[def.Name]
		if !ok {
			continue // measured by the untraced runs
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || (v == 0 && def.Name != "obs.armed_overhead_pct") {
			t.Errorf("%s = %v", def.Name, v)
		}
	}
	// Every span closed inside the root, which covers the whole run.
	root := tr.Spans[0]
	for _, s := range tr.Spans {
		if s.End < s.Start || s.Start < root.Start || s.End > root.End {
			t.Fatalf("span %+v outside root %+v", s, root)
		}
	}
	if n := len(tr.Spans); n != 1+1+3+tr.Jobs*5 {
		t.Errorf("%d spans, want root + relgen + 3 placements + 5 per job for %d jobs", n, tr.Jobs)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 10e6},
		{ID: 2, Parent: 1, Name: "a", Start: 1e6, End: 4e6},
		{ID: 3, Parent: 1, Name: "b", Start: 5e6, End: 6e6},
		{ID: 4, Parent: 2, Name: "c", Start: 2e6, End: 3e6},
	}
	for name, want := range map[string]float64{"job": 6, "a": 2, "b": 1, "c": 1} {
		if got, n := selfMS(spans, name); got != want || n != 1 {
			t.Errorf("selfMS(%s) = %v over %d spans, want %v", name, got, n, want)
		}
	}
}

func TestReferenceDiff(t *testing.T) {
	o, _, err := mini.run(1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := o.digest()
	if err != nil {
		t.Fatal(err)
	}
	ref := newReference(mini, 1, o, d)
	if bad := diffReference(ref, ref); len(bad) > 0 {
		t.Fatalf("identical references differ: %v", bad)
	}
	drifted := newReference(mini, 1, o, d)
	drifted.Points[1].Values["qps"] += 0.001
	drifted.Digest = "other"
	if bad := diffReference(ref, drifted); len(bad) != 2 {
		t.Errorf("drift reported as %v, want the point value and the digest", bad)
	}
}

// TestPaperResultsCheck parses the repository's paper-scale results and
// checks a figure-10a point rebuilt from the file's own numbers passes,
// and fails once one cell moves.
func TestPaperResultsCheck(t *testing.T) {
	pr, err := readPaperResults(filepath.Join("..", paperResultsFile))
	if err != nil {
		t.Fatal(err)
	}
	f := pr["10a"]
	if f == nil || len(f.notes) != 1 || len(f.tables) != 2 || len(f.tables[1].rows) != 27 {
		t.Fatalf("fig 10a parsed as %+v", f)
	}
	if want := []string{"MPL", "magic", "berd", "range"}; !reflect.DeepEqual(f.tables[0].header, want) {
		t.Fatalf("throughput header %q, want %q", f.tables[0].header, want)
	}
	r := gamma.RunResult{
		ThroughputQPS: 213.35, MeanResponseMS: 302.2, P95ResponseMS: 587.6, MeanProcsUsed: 7.46,
		DiskUtilization: 0.94, CPUUtilization: 0.66, BufferHitRate: 0.57, DiskReadsPerQry: 10.8,
	}
	fo := figureOutput{ID: "10a", Notes: f.notes, Closed: []experiments.Point{{Strategy: "magic", MPL: 64, Result: r}}}
	opts := experiments.PaperScale()
	if bad := pr.check(fo, opts, true); len(bad) > 0 {
		t.Fatalf("matching point rejected: %v", bad)
	}
	fo.Closed[0].Result.P95ResponseMS = 587.7
	if bad := pr.check(fo, opts, true); len(bad) != 1 || !strings.Contains(bad[0], "p95 ms") {
		t.Errorf("moved p95 reported as %v", bad)
	}
	fo.Notes = []string{"magic: directory [1 1]"}
	if bad := pr.check(fo, opts, false); len(bad) != 1 {
		t.Errorf("moved note reported as %v", bad)
	}
}

func TestResultsJSONRoundTrip(t *testing.T) {
	rec := repRecord{
		WallS: 2, SetupS: 0.5, JobPhaseS: 1.5, SimQueries: 300, PeakRSSMB: 100, Jobs: 3,
		JobMS: []float64{400, 500, 600}, Speedup: 1, AllocKB: 30, GCCPUFrac: 0.02, Digest: "d",
		LeakedGoroutines: 90, RetainedMB: 6,
	}
	layers := map[string]float64{}
	for _, def := range perLayer {
		layers[def.Name] = 1.5
	}
	tr := rec
	tr.Traced, tr.WallS, tr.Layers = true, 3, layers
	res := assemble(mini, 1, []repRecord{rec, rec}, []repRecord{tr, tr}, nil)
	if !res.Correct || res.Attempted != 12 || len(res.Metrics) != len(endToEnd)+len(perLayer) {
		t.Fatalf("assembled %+v", res)
	}
	if m, _ := res.metric("bench.trace_overhead_pct"); m.Median != 50 {
		t.Errorf("trace overhead %v, want 50", m.Median)
	}
	path := filepath.Join(t.TempDir(), "results.json")
	want := resultsFile{Host: describeHost(), Results: []workloadResult{res}}
	if err := writeResults(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the results:\n got %+v\nwant %+v", got, want)
	}
}

// TestBenchmarkJSON checks BENCHMARK.json describes exactly the workloads
// and metrics this program runs and reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads {
		if i >= len(bj.Workloads) || bj.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program runs %s", i, bj.Workloads, w.Name)
		}
	}
	sp, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.EndToEnd) != len(endToEnd) || len(sp.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, program reports %d+%d",
			len(sp.EndToEnd), len(sp.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, def := range endToEnd {
		if m := sp.EndToEnd[i]; m.Name != def.Name || m.Unit != def.Unit {
			t.Errorf("end_to_end %d: %s %s, program reports %s %s", i, m.Name, m.Unit, def.Name, def.Unit)
		}
	}
	for i, def := range perLayer {
		if m := sp.PerLayer[i]; m.Name != def.Name || m.Unit != def.Unit {
			t.Errorf("per_layer %d: %s %s, program reports %s %s", i, m.Name, m.Unit, def.Name, def.Unit)
		}
	}
}
