// Package harness orchestrates simulation campaigns: it executes a set of
// independent jobs on a bounded worker pool, isolates each job behind
// recover() and an optional wall-clock budget so one panicking or hung
// simulation becomes a structured failure record instead of a crashed
// campaign, emits live progress/ETA lines, and records a JSON run manifest
// (per-job wall time, worker count, speedup versus back-to-back execution)
// for archiving next to experiment results.
//
// The harness is deliberately generic: it knows nothing about figures,
// strategies or the Gamma machine. internal/experiments decomposes a
// figure list into a job set and feeds it here; anything else with
// independent units of work can do the same.
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Job is one independent unit of work. Run must be self-contained: the
// harness may execute it on any worker goroutine, so everything it touches
// concurrently with other jobs must be immutable or job-private.
type Job struct {
	// ID identifies the job in progress lines and the manifest
	// (e.g. "fig8a/magic/mpl32").
	ID string
	// Seed is recorded in the manifest so a failed job can be replayed in
	// isolation.
	Seed int64
	// Run does the work and returns its result. A panic inside Run is
	// recovered and recorded as a job failure.
	Run func() (any, error)
}

// Options configure one Execute call.
type Options struct {
	// Workers bounds concurrency; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// JobTimeout is each job's wall-clock budget; 0 disables it. A
	// timed-out job is abandoned (Go cannot kill its goroutine; it keeps
	// running until it returns, its result discarded) and recorded as a
	// failure. Negative budgets are a configuration error, rejected by
	// Execute before any job runs.
	JobTimeout time.Duration
	// Progress receives a live "k/n done, eta" line per completed job;
	// nil disables progress output.
	Progress io.Writer
	// Label names the campaign in the manifest and progress lines.
	Label string
}

// JobReport is one job's manifest entry.
type JobReport struct {
	ID       string  `json:"id"`
	Seed     int64   `json:"seed"`
	WallMS   float64 `json:"wall_ms"`
	Error    string  `json:"error,omitempty"`
	Panicked bool    `json:"panicked,omitempty"`
	TimedOut bool    `json:"timed_out,omitempty"`
	// Detail is the caller's per-job payload (what the run measured, the
	// workload it offered); the harness only carries it into the manifest.
	Detail any `json:"detail,omitempty"`
}

// Failed reports whether the job ended in any failure (error, panic, or
// timeout).
func (r JobReport) Failed() bool { return r.Error != "" }

// Env records the toolchain and host a campaign ran under, so archived
// manifests are comparable across machines and Go releases.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// CaptureEnv snapshots the current process environment.
func CaptureEnv() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// Manifest summarizes one Execute call.
type Manifest struct {
	Label   string `json:"label,omitempty"`
	Env     Env    `json:"env"`
	Workers int    `json:"workers"`
	Jobs    int    `json:"jobs"`
	Failed  int    `json:"failed"`
	// WallMS is the end-to-end wall time of the pool; SumJobMS is the sum
	// of per-job wall times — what a back-to-back serial execution of the
	// same jobs would have cost.
	WallMS   float64 `json:"wall_ms"`
	SumJobMS float64 `json:"sum_job_ms"`
	// Speedup is SumJobMS / WallMS.
	Speedup float64 `json:"speedup"`
	// PeakRSSMB is the process's peak resident set size in MiB (VmHWM)
	// when the pool finished; 0 where /proc is unavailable.
	PeakRSSMB float64     `json:"peak_rss_mb"`
	Reports   []JobReport `json:"job_reports"`
}

// Failures returns the reports of the jobs that failed, in job order.
func (m Manifest) Failures() []JobReport {
	var out []JobReport
	for _, r := range m.Reports {
		if r.Failed() {
			out = append(out, r)
		}
	}
	return out
}

// Err returns nil when every job succeeded, otherwise an error naming the
// first failure and the failure count.
func (m Manifest) Err() error {
	fails := m.Failures()
	if len(fails) == 0 {
		return nil
	}
	return fmt.Errorf("harness: %d of %d jobs failed (first: %s: %s)",
		len(fails), m.Jobs, fails[0].ID, fails[0].Error)
}

// Write encodes the manifest as indented JSON.
func (m Manifest) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Merge combines the manifests of campaigns run back to back (e.g. the
// figure sweep followed by the scale-out sweep) into one: job reports
// concatenate, wall times add, the peak RSS is the largest part's, and the
// speedup is recomputed over the union.
func Merge(label string, ms ...Manifest) Manifest {
	out := Manifest{Label: label, Env: CaptureEnv()}
	for _, m := range ms {
		if m.Workers > out.Workers {
			out.Workers = m.Workers
		}
		out.Jobs += m.Jobs
		out.Failed += m.Failed
		out.WallMS += m.WallMS
		out.SumJobMS += m.SumJobMS
		out.PeakRSSMB = max(out.PeakRSSMB, m.PeakRSSMB)
		out.Reports = append(out.Reports, m.Reports...)
	}
	if out.WallMS > 0 {
		out.Speedup = out.SumJobMS / out.WallMS
	}
	return out
}

// jobResult crosses from the job goroutine back to its worker. The channel
// carrying it is buffered so an abandoned (timed-out) job's send never
// blocks and its late result is simply dropped — nothing it computed is
// published, which keeps Execute race-free even when jobs overrun their
// budget.
type jobResult struct {
	value    any
	err      error
	panicked bool
}

// runAttempt executes the job's Run once under recover() and the wall-clock
// budget; timedOut marks an abandoned attempt.
func runAttempt(job Job, budget time.Duration) (res jobResult, timedOut bool) {
	ch := make(chan jobResult, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- jobResult{
					err:      fmt.Errorf("panic: %v\n%s", r, debug.Stack()),
					panicked: true,
				}
			}
		}()
		v, err := job.Run()
		ch <- jobResult{value: v, err: err}
	}()

	if budget > 0 {
		timer := time.NewTimer(budget)
		select {
		case res = <-ch:
			timer.Stop()
		case <-timer.C:
			return jobResult{}, true
		}
	} else {
		res = <-ch
	}
	return res, false
}

// runOne executes a single job once and reports how it ended.
func runOne(job Job, opts Options) (any, JobReport) {
	rep := JobReport{ID: job.ID, Seed: job.Seed}
	start := time.Now()
	res, timedOut := runAttempt(job, opts.JobTimeout)
	rep.WallMS = msSince(start)
	switch {
	case timedOut:
		rep.TimedOut = true
		rep.Error = fmt.Sprintf("timed out after %v (job abandoned)", opts.JobTimeout)
	case res.err != nil:
		rep.Error = res.err.Error()
		rep.Panicked = res.panicked
	default:
		return res.value, rep
	}
	return nil, rep
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// peakRSSMB reads the process's peak resident set size from
// /proc/self/status, in MiB; 0 where the file is unavailable.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	return parseVmHWM(string(status))
}

// parseVmHWM extracts the VmHWM line ("VmHWM:   12345 kB") of a
// /proc/<pid>/status text, in MiB; 0 when the line is missing or malformed.
func parseVmHWM(status string) float64 {
	for _, line := range strings.Split(status, "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// Execute runs the jobs on a bounded worker pool and returns their values
// (indexed like jobs; nil for failed jobs) plus the run manifest. The error
// reports invalid Options only — per-job failures are in the manifest; use
// Manifest.Err to turn them into one.
func Execute(jobs []Job, opts Options) ([]any, Manifest, error) {
	if opts.JobTimeout < 0 {
		return nil, Manifest{}, fmt.Errorf("harness: negative job timeout %v", opts.JobTimeout)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	values := make([]any, len(jobs))
	reports := make([]JobReport, len(jobs))
	start := time.Now()

	var (
		mu    sync.Mutex
		done  int
		sumMS float64
	)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				v, rep := runOne(jobs[i], opts)
				values[i], reports[i] = v, rep
				mu.Lock()
				done++
				sumMS += rep.WallMS
				if opts.Progress != nil {
					progressLine(opts, rep, done, len(jobs), workers, sumMS, time.Since(start))
				}
				mu.Unlock()
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()

	m := Manifest{
		Label:     opts.Label,
		Env:       CaptureEnv(),
		Workers:   workers,
		Jobs:      len(jobs),
		WallMS:    msSince(start),
		SumJobMS:  sumMS,
		PeakRSSMB: peakRSSMB(),
		Reports:   reports,
	}
	for _, r := range reports {
		if r.Failed() {
			m.Failed++
		}
	}
	if m.WallMS > 0 {
		m.Speedup = m.SumJobMS / m.WallMS
	}
	return values, m, nil
}

// progressLine prints one completion line with a remaining-time estimate:
// mean job cost times the jobs left, spread over the workers.
func progressLine(opts Options, rep JobReport, done, total, workers int, sumMS float64, elapsed time.Duration) {
	prefix := ""
	if opts.Label != "" {
		prefix = opts.Label + ": "
	}
	status := "done"
	if rep.Failed() {
		status = "FAILED"
	}
	etaMS := sumMS / float64(done) * float64(total-done) / float64(workers)
	fmt.Fprintf(opts.Progress, "%s%d/%d jobs, %s %s in %.1fs, elapsed %.1fs, eta %.0fs\n",
		prefix, done, total, rep.ID, status, rep.WallMS/1000,
		elapsed.Seconds(), etaMS/1000)
}
