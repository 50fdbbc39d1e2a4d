package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func okJob(id string, v any) Job {
	return Job{ID: id, Run: func() (any, error) { return v, nil }}
}

func TestExecuteReturnsValuesInJobOrder(t *testing.T) {
	var jobs []Job
	for i := 0; i < 20; i++ {
		jobs = append(jobs, okJob(fmt.Sprintf("job%d", i), i*i))
	}
	values, m, _ := Execute(jobs, Options{Workers: 4})
	if len(values) != 20 {
		t.Fatalf("values = %d", len(values))
	}
	for i, v := range values {
		if v.(int) != i*i {
			t.Fatalf("values[%d] = %v", i, v)
		}
	}
	if m.Jobs != 20 || m.Failed != 0 || m.Workers != 4 {
		t.Fatalf("manifest = %+v", m)
	}
	if err := m.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if len(m.Reports) != 20 || m.Reports[3].ID != "job3" {
		t.Fatalf("reports misaligned: %+v", m.Reports[:4])
	}
	if m.Speedup <= 0 {
		t.Fatalf("speedup = %v", m.Speedup)
	}
}

func TestExecuteBoundsConcurrency(t *testing.T) {
	var running, peak atomic.Int32
	var jobs []Job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, Job{ID: fmt.Sprintf("j%d", i), Run: func() (any, error) {
			n := running.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			running.Add(-1)
			return nil, nil
		}})
	}
	_, m, _ := Execute(jobs, Options{Workers: 3})
	if got := peak.Load(); got > 3 {
		t.Fatalf("observed %d concurrent jobs with 3 workers", got)
	}
	if m.Failed != 0 {
		t.Fatalf("failures: %+v", m.Failures())
	}
}

// A panicking job must become a structured failure record, not a crashed
// campaign; the other jobs' values must survive.
func TestPanicIsolation(t *testing.T) {
	jobs := []Job{
		okJob("before", "a"),
		{ID: "boom", Seed: 42, Run: func() (any, error) { panic("injected") }},
		okJob("after", "b"),
	}
	values, m, _ := Execute(jobs, Options{Workers: 2})
	if values[0] != "a" || values[2] != "b" {
		t.Fatalf("survivor values lost: %v", values)
	}
	if values[1] != nil {
		t.Fatalf("panicked job produced a value: %v", values[1])
	}
	fails := m.Failures()
	if len(fails) != 1 || fails[0].ID != "boom" || !fails[0].Panicked {
		t.Fatalf("failures = %+v", fails)
	}
	if fails[0].Seed != 42 {
		t.Fatalf("failure lost the replay seed: %+v", fails[0])
	}
	if !strings.Contains(fails[0].Error, "injected") {
		t.Fatalf("failure lost the panic value: %q", fails[0].Error)
	}
	if err := m.Err(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Err = %v", err)
	}
}

func TestJobError(t *testing.T) {
	jobs := []Job{
		{ID: "bad", Run: func() (any, error) { return nil, errors.New("nope") }},
		okJob("good", 7),
	}
	values, m, _ := Execute(jobs, Options{Workers: 1})
	if values[0] != nil || values[1] != 7 {
		t.Fatalf("values = %v", values)
	}
	if m.Failed != 1 || m.Reports[0].Error != "nope" || m.Reports[0].Panicked {
		t.Fatalf("reports = %+v", m.Reports)
	}
}

// A hung job must be abandoned at its wall-clock budget and recorded as a
// timeout; the pool must keep draining the remaining jobs.
func TestJobTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	jobs := []Job{
		{ID: "hung", Seed: 9, Run: func() (any, error) {
			<-release // simulates a simulation that never completes
			return "late", nil
		}},
		okJob("quick", 1),
		okJob("quick2", 2),
	}
	values, m, _ := Execute(jobs, Options{Workers: 2, JobTimeout: 20 * time.Millisecond})
	if values[0] != nil {
		t.Fatalf("timed-out job published a value: %v", values[0])
	}
	if values[1] != 1 || values[2] != 2 {
		t.Fatalf("other jobs lost: %v", values)
	}
	fails := m.Failures()
	if len(fails) != 1 || !fails[0].TimedOut || fails[0].ID != "hung" {
		t.Fatalf("failures = %+v", fails)
	}
}

func TestDefaultWorkersAndEmptyJobSet(t *testing.T) {
	values, m, _ := Execute(nil, Options{})
	if len(values) != 0 || m.Jobs != 0 || m.Failed != 0 {
		t.Fatalf("empty run: %v %+v", values, m)
	}
	if m.Workers < 1 {
		t.Fatalf("defaulted workers = %d", m.Workers)
	}
	if err := m.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
}

func TestProgressLines(t *testing.T) {
	var buf bytes.Buffer
	jobs := []Job{okJob("a", 1), okJob("b", 2), {ID: "c", Run: func() (any, error) {
		return nil, errors.New("x")
	}}}
	_, _, _ = Execute(jobs, Options{Workers: 1, Progress: &buf, Label: "camp"})
	out := buf.String()
	if strings.Count(out, "\n") != 3 {
		t.Fatalf("want one line per job:\n%s", out)
	}
	for _, want := range []string{"camp: ", "1/3 jobs", "3/3 jobs", "eta", "FAILED"} {
		if !strings.Contains(out, want) {
			t.Fatalf("progress missing %q:\n%s", want, out)
		}
	}
}

func TestManifestWriteAndMerge(t *testing.T) {
	_, m1, _ := Execute([]Job{okJob("a", 1)}, Options{Workers: 2, Label: "one"})
	_, m2, _ := Execute([]Job{okJob("b", 2), {ID: "bad", Run: func() (any, error) {
		return nil, errors.New("x")
	}}}, Options{Workers: 4, Label: "two"})

	merged := Merge("both", m1, m2)
	if merged.Jobs != 3 || merged.Failed != 1 || merged.Workers != 4 {
		t.Fatalf("merged = %+v", merged)
	}
	if merged.WallMS < m1.WallMS || merged.WallMS < m2.WallMS {
		t.Fatalf("merged wall %.3f < parts %.3f/%.3f", merged.WallMS, m1.WallMS, m2.WallMS)
	}
	if len(merged.Reports) != 3 {
		t.Fatalf("reports = %d", len(merged.Reports))
	}

	var buf bytes.Buffer
	if err := merged.Write(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"label": "both"`, `"workers": 4`, `"job_reports"`, `"wall_ms"`, `"speedup"`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("manifest JSON missing %q:\n%s", want, buf.String())
		}
	}
}

func TestManifestRecordsEnv(t *testing.T) {
	_, m, _ := Execute([]Job{{ID: "a", Run: func() (any, error) { return 1, nil }}}, Options{Workers: 1})
	if m.Env.GoVersion != runtime.Version() {
		t.Errorf("GoVersion = %q, want %q", m.Env.GoVersion, runtime.Version())
	}
	if m.Env.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("GOMAXPROCS = %d, want %d", m.Env.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}
	if m.Env.NumCPU != runtime.NumCPU() {
		t.Errorf("NumCPU = %d, want %d", m.Env.NumCPU, runtime.NumCPU())
	}

	// The env survives serialization and merging.
	merged := Merge("both", m, m)
	if merged.Env != m.Env {
		t.Errorf("merged env = %+v", merged.Env)
	}
	var buf bytes.Buffer
	if err := merged.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Env != m.Env {
		t.Errorf("round-tripped env = %+v", back.Env)
	}
}

func TestNegativeJobTimeoutIsAnError(t *testing.T) {
	values, m, err := Execute([]Job{okJob("a", 1)}, Options{Workers: 1, JobTimeout: -time.Second})
	if err == nil {
		t.Fatal("negative budget did not error")
	}
	if values != nil || m.Jobs != 0 {
		t.Fatalf("rejected run still produced output: %v %+v", values, m)
	}
}

func TestZeroJobTimeoutMeansNoBudget(t *testing.T) {
	_, m, err := Execute([]Job{okJob("a", 1)}, Options{Workers: 1, JobTimeout: 0})
	if err != nil || m.Failed != 0 {
		t.Fatalf("zero budget run failed: %v %+v", err, m.Failures())
	}
}

// A failing job runs exactly once: the harness never retries.
func TestNoRetryWithoutClassifier(t *testing.T) {
	var calls atomic.Int32
	jobs := []Job{{ID: "j", Run: func() (any, error) {
		calls.Add(1)
		return nil, errors.New("x")
	}}}
	_, m, _ := Execute(jobs, Options{Workers: 1})
	if calls.Load() != 1 || !m.Reports[0].Failed() {
		t.Fatalf("calls = %d, report %+v", calls.Load(), m.Reports[0])
	}
}

// TestManifestOpenSystemFieldsRoundTrip: an open-system job's caller-owned
// detail (arrival kind, offered load) survives the manifest's JSON, and a
// job without detail omits the key.
func TestManifestOpenSystemFieldsRoundTrip(t *testing.T) {
	type openDetail struct {
		Arrival    string  `json:"arrival"`
		OfferedQPS float64 `json:"offered_qps"`
	}
	m := Manifest{
		Label:   "open",
		Workers: 2,
		Jobs:    2,
		Reports: []JobReport{
			{ID: "fig8a/magic/poisson400", Seed: 7, WallMS: 12.5,
				Detail: openDetail{Arrival: "poisson", OfferedQPS: 400}},
			{ID: "fig8a/magic/mpl4", Seed: 7, WallMS: 3.25},
		},
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if n := strings.Count(text, "\"detail\""); n != 1 {
		t.Fatalf("want exactly 1 detail key (omitempty on jobs without one), got %d in:\n%s", n, text)
	}
	var back struct {
		Reports []struct {
			ID     string      `json:"id"`
			Detail *openDetail `json:"detail"`
		} `json:"job_reports"`
	}
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Reports) != 2 || back.Reports[1].Detail != nil {
		t.Fatalf("reports did not round-trip: %+v", back.Reports)
	}
	if d := back.Reports[0].Detail; d == nil || *d != (openDetail{"poisson", 400}) {
		t.Fatalf("open-system detail lost: %+v", d)
	}
}

func TestManifestPeakRSSRoundTrip(t *testing.T) {
	_, m, _ := Execute([]Job{okJob("a", 1)}, Options{Workers: 1})
	if _, err := os.Stat("/proc/self/status"); err == nil && m.PeakRSSMB <= 0 {
		t.Fatalf("peak RSS %v with /proc available", m.PeakRSSMB)
	}
	m.PeakRSSMB = 123.25
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"peak_rss_mb": 123.25`) {
		t.Fatalf("manifest JSON missing peak_rss_mb:\n%s", buf.String())
	}
	var back Manifest
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.PeakRSSMB != 123.25 {
		t.Fatalf("peak RSS round-tripped to %v", back.PeakRSSMB)
	}
	if merged := Merge("both", Manifest{PeakRSSMB: 40}, back, Manifest{PeakRSSMB: 7}); merged.PeakRSSMB != 123.25 {
		t.Fatalf("merged peak RSS = %v, want the largest part's", merged.PeakRSSMB)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tdeclusterbench\nVmPeak:\t  812340 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40960 kB\n"
	if got := parseVmHWM(status); got != 50 {
		t.Fatalf("VmHWM 51200 kB = %v MiB, want 50", got)
	}
	for _, bad := range []string{"", "VmRSS:\t 1024 kB\n", "VmHWM:\n", "VmHWM:\tlots kB\n"} {
		if got := parseVmHWM(bad); got != 0 {
			t.Fatalf("parseVmHWM(%q) = %v, want 0", bad, got)
		}
	}
}
