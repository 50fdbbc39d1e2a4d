// Command bench is the repository's end-to-end benchmark. It drives four
// workloads through the simulator's public entry points, times each run from
// outside in a fresh child process (so peak RSS and leaked goroutines never
// carry over), checks every simulated number against committed references,
// and prints each metric with its unit, median, quartiles and sample count.
// A traced run (-trace 1) calls each layer's public functions directly,
// records a span around every call, and derives the per-layer metrics.
//
// Run it from the repository root:
//
//	sh bench/run.sh                                  # all workloads, seed 1
//	sh bench/run.sh -workload quick-campaign -trace 1
//	sh bench/run.sh -json base.json                  # keep the results
//	sh bench/run.sh -compare base.json head.json     # judge a change
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See bench/README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric. Exact marks a simulated count that
// must repeat exactly across runs and commits of a simulator-only change.
type metricDef struct {
	Name  string
	Unit  string
	Exact bool
}

// endToEnd are the metrics a user of the simulator sees, measured in
// untraced runs; perLayer come from traced runs and runtime counters.
var (
	endToEnd = []metricDef{
		{Name: "wall_s", Unit: "s"},
		{Name: "setup_s", Unit: "s"},
		{Name: "sim_queries_per_s", Unit: "1/s"},
		{Name: "peak_rss_mb", Unit: "MB"},
	}
	perLayer = []metricDef{
		{Name: "storage.relgen_ms", Unit: "ms"},
		{Name: "core.placement_ms.magic", Unit: "ms"},
		{Name: "core.placement_ms.berd", Unit: "ms"},
		{Name: "core.placement_ms.range", Unit: "ms"},
		{Name: "core.magic_rebalance_swaps", Unit: "count", Exact: true},
		{Name: "gamma.build_ms", Unit: "ms"},
		{Name: "gamma.reset_ms", Unit: "ms"},
		{Name: "gamma.simulate_ms", Unit: "ms"},
		{Name: "gamma.host_us_per_sim_query", Unit: "us"},
		{Name: "obs.armed_overhead_pct", Unit: "%"},
		{Name: "exec.disk_reads_per_query", Unit: "reads", Exact: true},
		{Name: "buffer.hit_rate", Unit: "ratio", Exact: true},
		{Name: "exec.ops_per_query", Unit: "ops", Exact: true},
		{Name: "harness.job_ms_p50", Unit: "ms"},
		{Name: "harness.speedup", Unit: "ratio"},
		{Name: "runtime.goroutines_leaked_per_job", Unit: "count"},
		{Name: "runtime.retained_heap_mb_per_job", Unit: "MB"},
		{Name: "runtime.alloc_kb_per_sim_query", Unit: "KB"},
		{Name: "runtime.gc_cpu_frac", Unit: "ratio"},
		{Name: "bench.trace_overhead_pct", Unit: "%"},
	}
)

// childTimeout bounds one child run; a healthy one takes a few seconds.
const childTimeout = 120 * time.Second

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", referenceSeed, "workload seed; only seed 1 has reference output")
		seconds  = flag.Float64("seconds", 25, "how long to measure each workload")
		minReps  = flag.Int("reps", 3, "minimum repetitions per workload")
		trace    = flag.Int("trace", 0, "1: also run traced repetitions and report per-layer metrics")
		jsonOut  = flag.String("json", "", "write the results to this file")
		compare  = flag.Bool("compare", false, "compare two results files: -compare base.json head.json")
		update   = flag.Bool("update", false, "rewrite the committed reference output (seed 1 only)")
		child    = flag.Bool("child", false, "run one repetition in this process (used by the parent)")
		childTrc = flag.Bool("traced", false, "with -child: run the traced variant")
	)
	flag.Parse()
	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	if *compare {
		os.Exit(compareMain(root, flag.Args(), os.Stdout))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	if *update && *seed != referenceSeed {
		fatal(fmt.Errorf("-update writes references for seed %d only", referenceSeed))
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fatal(err)
		}
		selected = []workload{w}
	}
	if *child {
		rec := runChild(root, selected[0], *seed, *childTrc, *update)
		if err := json.NewEncoder(os.Stdout).Encode(rec); err != nil {
			fatal(err)
		}
		return
	}

	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	file := resultsFile{Host: describeHost()}
	cal := newCalibrator()
	correct := true
	for _, w := range selected {
		res := measure(cal, exe, w, *seed, *seconds, *minReps, *trace == 1, *update)
		file.Results = append(file.Results, res)
		printResult(os.Stdout, res)
		if err := printDriverLine(os.Stdout, res, *trace == 1); err != nil {
			fatal(err)
		}
		correct = correct && res.Correct
	}
	if *jsonOut != "" {
		if err := writeResults(*jsonOut, file); err != nil {
			fatal(err)
		}
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// findRoot walks up from the working directory to the repository root: the
// directory holding go.mod with the benchmark's own module beneath it.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if fileExists(filepath.Join(dir, "go.mod")) && fileExists(filepath.Join(dir, "bench", "go.mod")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repository: no go.mod with bench/go.mod above the working directory")
		}
		dir = parent
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// repRecord is what one child process reports about its repetition.
type repRecord struct {
	Traced     bool      `json:"traced"`
	WallS      float64   `json:"wall_s"`
	SetupS     float64   `json:"setup_s"`
	JobPhaseS  float64   `json:"job_phase_s"`
	SimQueries int64     `json:"sim_queries"`
	PeakRSSMB  float64   `json:"peak_rss_mb"`
	Jobs       int       `json:"jobs"`
	FailedJobs int       `json:"failed_jobs"`
	JobMS      []float64 `json:"job_ms,omitempty"`
	Speedup    float64   `json:"speedup,omitempty"`
	AllocKB    float64   `json:"alloc_kb"`
	GCCPUFrac  float64   `json:"gc_cpu_frac"`
	// LeakedGoroutines and RetainedMB are what the run left alive after a
	// full collection, against the same reading before it.
	LeakedGoroutines int                `json:"leaked_goroutines"`
	RetainedMB       float64            `json:"retained_mb"`
	Digest           string             `json:"output_digest"`
	Reference        string             `json:"reference"`
	Problems         []string           `json:"problems,omitempty"`
	Layers           map[string]float64 `json:"layers,omitempty"`
	// HostSpeed is the host's slowdown against the reference host, timed
	// around this repetition by the parent (see calibrate.go).
	HostSpeed float64 `json:"host_speed"`
}

// normalized returns the record with every host time divided by its host
// speed, i.e. expressed in reference-host time.
func (r repRecord) normalized() repRecord {
	f := r.HostSpeed
	if f <= 0 {
		return r
	}
	r.WallS, r.SetupS, r.JobPhaseS = r.WallS/f, r.SetupS/f, r.JobPhaseS/f
	r.JobMS = append([]float64(nil), r.JobMS...)
	for i := range r.JobMS {
		r.JobMS[i] /= f
	}
	layers := make(map[string]float64, len(r.Layers))
	for _, def := range perLayer {
		if v, ok := r.Layers[def.Name]; ok {
			if def.Unit == "ms" || def.Unit == "us" {
				v /= f
			}
			layers[def.Name] = v
		}
	}
	r.Layers = layers
	return r
}

// runChild executes one repetition of the workload in this process.
func runChild(root string, w workload, seed int64, traced, update bool) repRecord {
	rec := repRecord{Traced: traced}
	opts := w.options(seed)
	var out output
	var ms0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	goroutines0 := runtime.NumGoroutine()
	if traced {
		start := time.Now()
		tr, err := w.runTraced(seed)
		rec.WallS = time.Since(start).Seconds()
		if err != nil {
			rec.FailedJobs = 1
			rec.Problems = append(rec.Problems, err.Error())
			return rec
		}
		out, rec.Jobs, rec.Layers, rec.Problems = tr.Out, tr.Jobs, tr.Layers, tr.Problems
		path := filepath.Join(root, "bench", "out", "trace-"+w.Name+".json")
		if err := writeTrace(path, w.Name, seed, tr.Spans); err != nil {
			rec.Problems = append(rec.Problems, err.Error())
		}
	} else {
		o, st, err := w.run(seed)
		rec.WallS, rec.SetupS, rec.JobPhaseS = st.WallS, st.SetupS, st.JobPhaseS
		if err != nil {
			rec.FailedJobs = max(1, st.Manifest.Failed)
			rec.Problems = append(rec.Problems, err.Error())
			return rec
		}
		out = o
		rec.Jobs, rec.FailedJobs, rec.Speedup = st.Manifest.Jobs, st.Manifest.Failed, st.Manifest.Speedup
		for _, r := range st.Manifest.Reports {
			rec.JobMS = append(rec.JobMS, r.WallMS)
		}
	}
	// Collect before reading the heap: what survives is what the finished
	// jobs left behind.
	var ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	rec.LeakedGoroutines = runtime.NumGoroutine() - goroutines0
	rec.RetainedMB = (float64(ms1.HeapAlloc) - float64(ms0.HeapAlloc)) / (1 << 20)
	rec.SimQueries = out.simQueries(opts)
	rec.AllocKB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024
	rec.GCCPUFrac = gcCPUFraction()
	rec.PeakRSSMB = peakRSSMB()
	digest, err := out.digest()
	if err != nil {
		rec.Problems = append(rec.Problems, err.Error())
		return rec
	}
	rec.Digest = digest
	rec.Problems = append(rec.Problems, w.invariants(out, opts)...)
	if update {
		ref := newReference(w, seed, out, digest)
		if err := writeReference(referencePath(root, w.Name), ref); err != nil {
			rec.Problems = append(rec.Problems, err.Error())
		}
	}
	var bad []string
	rec.Reference, bad = checkReferences(root, w, seed, out, digest)
	rec.Problems = append(rec.Problems, bad...)
	return rec
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// gcCPUFraction is the share of the process's CPU time spent in the
// garbage collector so far.
func gcCPUFraction() float64 {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 || s[1].Value.Float64() == 0 {
		return 0
	}
	return s[0].Value.Float64() / s[1].Value.Float64()
}

// spawn runs one repetition in a fresh child process and waits for it,
// calibrating the host's speed just before and just after.
func spawn(cal *calibrator, exe string, w workload, seed int64, traced, update bool) (repRecord, error) {
	before := cal.times()
	rec, err := runProcess(exe, w, seed, traced, update)
	after := cal.times()
	for i := range before {
		before[i] = (before[i] + after[i]) / 2
	}
	rec.HostSpeed = slowdown(before)
	return rec, err
}

func runProcess(exe string, w workload, seed int64, traced, update bool) (repRecord, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{"-child", "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10)}
	if traced {
		args = append(args, "-traced")
	}
	if update {
		args = append(args, "-update")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	// One P per worker: a simulation is single-threaded, and on a VM host
	// the default (every CPU) lets runtime wake-ups of an idle vCPU make
	// timings bimodal.
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(w.Workers))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return repRecord{}, fmt.Errorf("%s child: %w", w.Name, err)
	}
	var rec repRecord
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &rec); err != nil {
		return repRecord{}, fmt.Errorf("%s child output: %w", w.Name, err)
	}
	return rec, nil
}

// metricResult is one metric's samples across repetitions.
type metricResult struct {
	Name  string `json:"name"`
	Unit  string `json:"unit"`
	Layer string `json:"layer"` // end_to_end or per_layer
	Exact bool   `json:"exact,omitempty"`
	summary
	Samples []float64 `json:"samples"`
}

// workloadResult is one workload's measurement: correctness, the output
// digest and every metric.
type workloadResult struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Reps      int            `json:"reps"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Digest    string         `json:"output_digest"`
	Reference string         `json:"reference"`
	Problems  []string       `json:"problems,omitempty"`
	JobMS     []float64      `json:"job_ms"`
	HostSpeed []float64      `json:"host_speed"`
	Metrics   []metricResult `json:"metrics"`
}

func (r workloadResult) metric(name string) (metricResult, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metricResult{}, false
}

// measure repeats the workload in child processes until another repetition
// would overrun the time budget (after at least minReps), alternating
// untraced and traced runs when tracing.
func measure(cal *calibrator, exe string, w workload, seed int64, seconds float64, minReps int, trace, update bool) workloadResult {
	start := time.Now()
	var plain, traced []repRecord
	var problems []string
	for {
		rec, err := spawn(cal, exe, w, seed, false, update)
		if err == nil {
			plain = append(plain, rec)
		}
		if err == nil && trace {
			if rec, err = spawn(cal, exe, w, seed, true, false); err == nil {
				traced = append(traced, rec)
			}
		}
		if err != nil {
			problems = append(problems, err.Error())
			break
		}
		n := float64(len(plain))
		elapsed := time.Since(start).Seconds()
		if len(plain) >= minReps && elapsed*(n+1)/n > seconds {
			break
		}
	}
	return assemble(w, seed, plain, traced, problems)
}

// assemble turns the repetitions' records into the workload's result.
func assemble(w workload, seed int64, plain, traced []repRecord, problems []string) workloadResult {
	res := workloadResult{Workload: w.Name, Seed: seed, Reps: len(plain)}
	for i := range plain {
		res.HostSpeed = append(res.HostSpeed, plain[i].HostSpeed)
		plain[i] = plain[i].normalized()
	}
	for i := range traced {
		traced[i] = traced[i].normalized()
	}
	seen := map[string]bool{}
	for _, p := range problems {
		seen[p] = true
	}
	for _, rec := range append(append([]repRecord(nil), plain...), traced...) {
		res.Attempted += rec.Jobs
		res.Failed += rec.FailedJobs
		if res.Digest == "" {
			res.Digest, res.Reference = rec.Digest, rec.Reference
		} else if rec.Digest != res.Digest {
			kind := "a repetition"
			if rec.Traced {
				kind = "the traced run"
			}
			problems = append(problems, fmt.Sprintf("%s produced output digest %s, first run %s", kind, rec.Digest, res.Digest))
		}
		for _, p := range rec.Problems {
			if !seen[p] {
				seen[p] = true
				problems = append(problems, p)
			}
		}
		if !rec.Traced {
			res.JobMS = append(res.JobMS, rec.JobMS...)
		}
	}
	res.Problems = problems
	res.Failed += len(problems)
	res.Attempted = max(res.Attempted, res.Failed, 1)
	res.Correct = res.Failed == 0

	add := func(def metricDef, layer string, samples []float64) {
		res.Metrics = append(res.Metrics, metricResult{
			Name: def.Name, Unit: def.Unit, Layer: layer, Exact: def.Exact,
			summary: summarize(samples), Samples: samples,
		})
	}
	e2e := map[string]func(repRecord) float64{
		"wall_s":            func(r repRecord) float64 { return r.WallS },
		"setup_s":           func(r repRecord) float64 { return r.SetupS },
		"sim_queries_per_s": func(r repRecord) float64 { return float64(r.SimQueries) / r.JobPhaseS },
		"peak_rss_mb":       func(r repRecord) float64 { return r.PeakRSSMB },
	}
	for _, def := range endToEnd {
		add(def, "end_to_end", collect(plain, e2e[def.Name]))
	}
	if len(traced) == 0 {
		return res
	}
	fromPlain := map[string]func(repRecord) float64{
		"harness.job_ms_p50":             func(r repRecord) float64 { return median(r.JobMS) },
		"harness.speedup":                func(r repRecord) float64 { return r.Speedup },
		"runtime.alloc_kb_per_sim_query": func(r repRecord) float64 { return r.AllocKB / float64(r.SimQueries) },
		"runtime.gc_cpu_frac":            func(r repRecord) float64 { return r.GCCPUFrac },
		"runtime.goroutines_leaked_per_job": func(r repRecord) float64 {
			return float64(r.LeakedGoroutines) / float64(r.Jobs)
		},
		"runtime.retained_heap_mb_per_job": func(r repRecord) float64 { return r.RetainedMB / float64(r.Jobs) },
	}
	for _, def := range perLayer {
		var samples []float64
		switch f, ok := fromPlain[def.Name]; {
		case ok:
			samples = collect(plain, f)
		case def.Name == "bench.trace_overhead_pct":
			for i, t := range traced {
				samples = append(samples, 100*(t.WallS/plain[i].WallS-1))
			}
		default:
			samples = collect(traced, func(r repRecord) float64 { return r.Layers[def.Name] })
		}
		add(def, "per_layer", samples)
	}
	return res
}

// collect applies f to every repetition that ran to completion.
func collect(recs []repRecord, f func(repRecord) float64) []float64 {
	out := make([]float64, 0, len(recs))
	for _, r := range recs {
		if r.Digest != "" {
			out = append(out, f(r))
		}
	}
	return out
}

// printResult renders one workload's result for a reader.
func printResult(w io.Writer, r workloadResult) {
	status := "correct"
	if !r.Correct {
		status = "INCORRECT"
	}
	fmt.Fprintf(w, "workload %s  seed %d  reps %d  %s  jobs %d  failed %d\n",
		r.Workload, r.Seed, r.Reps, status, r.Attempted, r.Failed)
	fmt.Fprintf(w, "  output_digest %s\n  reference: %s\n", r.Digest, r.Reference)
	fmt.Fprintf(w, "  host slowdown %.3f against the reference host (median; times are divided by it)\n",
		median(r.HostSpeed))
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	fmt.Fprintf(w, "  %-34s %-6s %12s %12s %12s %4s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "  %-34s %-6s %12.6g %12.6g %12.6g %4d\n", m.Name, m.Unit, m.Median, m.Q1, m.Q3, m.N)
	}
	if n := len(r.JobMS); n > 0 {
		line := fmt.Sprintf("  harness job wall ms: n=%d p50=%.4g", n, median(r.JobMS))
		if p, ok := tailPercentile(n); ok {
			line += fmt.Sprintf(" p%g=%.4g", p, percentile(r.JobMS, p))
		}
		fmt.Fprintln(w, line)
	}
}

// printDriverLine prints the one-line JSON result: the end-to-end metrics,
// or with tracing the per-layer ones, each as its median.
func printDriverLine(w io.Writer, r workloadResult, trace bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	layer := "end_to_end"
	if trace {
		layer = "per_layer"
	}
	m := map[string]value{}
	for _, x := range r.Metrics {
		if x.Layer == layer {
			m[x.Name] = value{x.Median, x.Unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// resultsFile is what -json writes and -compare reads.
type resultsFile struct {
	Host    host             `json:"host"`
	Results []workloadResult `json:"results"`
}

type host struct {
	CPU      string `json:"cpu"`
	NumCPU   int    `json:"num_cpu"`
	MemoryMB int    `json:"memory_mb"`
	Go       string `json:"go"`
	OS       string `json:"os"`
}

func describeHost() host {
	h := host{NumCPU: runtime.NumCPU(), Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/meminfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "MemTotal:" {
				kb, _ := strconv.Atoi(f[1])
				h.MemoryMB = kb / 1024
			}
		}
	}
	return h
}

func writeResults(path string, f resultsFile) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
