package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/serve"
	"repro/internal/sim"
)

func TestBuildOptions(t *testing.T) {
	opts, err := buildOptions("quick", 0, 0, "", 0, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Cardinality != 20000 {
		t.Fatalf("quick cardinality = %d", opts.Cardinality)
	}
	if opts.Seed != 1 || opts.SeedSet {
		t.Fatalf("default seed = %d (set=%v), want 1 (unset)", opts.Seed, opts.SeedSet)
	}
	opts, err = buildOptions("paper", 5000, 16, "1,4,8", 100, 10, 9, true)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Cardinality != 5000 || opts.Processors != 16 ||
		opts.MeasureQueries != 100 || opts.WarmupQueries != 10 || opts.Seed != 9 {
		t.Fatalf("overrides not applied: %+v", opts)
	}
	if len(opts.MPLs) != 3 || opts.MPLs[2] != 8 {
		t.Fatalf("MPLs = %v", opts.MPLs)
	}
}

// An explicit -seed 0 must survive as seed 0 instead of silently falling
// back to the scale default.
func TestBuildOptionsExplicitSeedZero(t *testing.T) {
	opts, err := buildOptions("quick", 0, 0, "", 0, 0, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Seed != 0 || !opts.SeedSet {
		t.Fatalf("explicit seed 0 became %d (set=%v)", opts.Seed, opts.SeedSet)
	}
}

func TestBuildOptionsErrors(t *testing.T) {
	if _, err := buildOptions("warp", 0, 0, "", 0, 0, 0, false); err == nil {
		t.Error("unknown scale accepted")
	}
	if _, err := buildOptions("quick", 0, 0, "1,zero", 0, 0, 0, false); err == nil {
		t.Error("bad MPL accepted")
	}
	if _, err := buildOptions("quick", 0, 0, "0", 0, 0, 0, false); err == nil {
		t.Error("non-positive MPL accepted")
	}
}

func TestSelectFigures(t *testing.T) {
	all, err := selectFigures("")
	if err != nil || len(all) != 9 {
		t.Fatalf("all figures: %d, %v", len(all), err)
	}
	some, err := selectFigures("8a, 12b")
	if err != nil || len(some) != 2 || some[1].ID != "12b" {
		t.Fatalf("subset: %v, %v", some, err)
	}
	if _, err := selectFigures("99x"); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestSelectFiguresNone(t *testing.T) {
	figs, err := selectFigures("none")
	if err != nil || len(figs) != 0 {
		t.Fatalf("none: %v, %v", figs, err)
	}
}

func TestWorkersFor(t *testing.T) {
	if got := workersFor(8); got != 8 {
		t.Fatalf("workersFor(8) = %d", got)
	}
	if got := workersFor(0); got < 1 {
		t.Fatalf("workersFor(0) = %d", got)
	}
}

func TestBuildOpenOptions(t *testing.T) {
	oopts, err := buildOpenOptions("poisson", "", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if oopts.Arrival != serve.Poisson || oopts.Lambdas != nil {
		t.Fatalf("defaults not preserved: %+v", oopts)
	}
	oopts, err = buildOpenOptions("bursty", "100, 250.5,800", 3, 500, 32)
	if err != nil {
		t.Fatal(err)
	}
	if oopts.Arrival != serve.Bursty || oopts.Tenants != 3 ||
		oopts.SLOms != 500 || oopts.MaxInService != 32 {
		t.Fatalf("overrides not applied: %+v", oopts)
	}
	want := []float64{100, 250.5, 800}
	if len(oopts.Lambdas) != 3 || oopts.Lambdas[0] != want[0] ||
		oopts.Lambdas[1] != want[1] || oopts.Lambdas[2] != want[2] {
		t.Fatalf("lambdas = %v, want %v", oopts.Lambdas, want)
	}
	if _, err := buildOpenOptions("diurnal", "", 0, 0, 0); err != nil {
		t.Fatalf("diurnal rejected: %v", err)
	}
}

func TestBuildOpenOptionsErrors(t *testing.T) {
	cases := []struct {
		name             string
		arrival, lambdas string
		tenants          int
		sloMS            float64
		governor         int
	}{
		{"unknown arrival", "lognormal", "", 0, 0, 0},
		{"bad lambda", "poisson", "100,fast", 0, 0, 0},
		{"zero lambda", "poisson", "0", 0, 0, 0},
		{"negative lambda", "poisson", "-5", 0, 0, 0},
		{"negative tenants", "poisson", "", -1, 0, 0},
		{"negative slo", "poisson", "", 0, -1, 0},
		{"negative governor", "poisson", "", 0, 0, -1},
	}
	for _, c := range cases {
		if _, err := buildOpenOptions(c.arrival, c.lambdas, c.tenants, c.sloMS, c.governor); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// TestRefusesConflictingFlags: flag combinations one of whose flags would
// be silently ignored, or whose -compare gate could never fail, exit 1
// with a message before any simulation runs.
func TestRefusesConflictingFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"open with faults", []string{"-open", "-faults", "0,1"}, "at most one of"},
		{"share with open", []string{"-share", "-open"}, "at most one of"},
		{"elastic with faults", []string{"-elastic", "-faults", "1"}, "at most one of"},
		{"json outside the figure campaign", []string{"-open", "-json", filepath.Join(t.TempDir(), "a.json")}, "-json and -compare"},
		{"compare outside the figure campaign", []string{"-share", "-compare", "base.json"}, "-json and -compare"},
		{"json without figures", []string{"-fig", "none", "-scaleout", "-json", filepath.Join(t.TempDir(), "b.json")}, "-json and -compare"},
		{"negative leave node", []string{"-elastic", "-leave-node", "-3"}, "negative -leave-node"},
		{"more failed disks than processors", []string{"-procs", "4", "-faults", "0,40"}, "cannot fail 40 disks"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stdout, stderr, code := execCommand(t, append([]string{"-scale", "quick"}, c.args...)...)
			if code != 1 || len(stdout) != 0 || !strings.Contains(stderr, c.want) {
				t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1 and %q", code, stdout, stderr, c.want)
			}
		})
	}
}

// A positional argument ends flag parsing, so the flags after it would be
// dropped: "-csv out -detail" must fail with a usage error, not run
// without -detail.
func TestRejectsStrayArguments(t *testing.T) {
	stdout, stderr, code := execCommand(t, "-scale", "quick", "-fig", "8a", "-csv", "out", "-detail")
	if code != 2 || len(stdout) != 0 || !strings.Contains(stderr, `unexpected argument "out"`) || !strings.Contains(stderr, "-detail") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2 and a usage error naming \"out\"", code, stdout, stderr)
	}
}

// Each job's manifest detail carries the sim kernel's counters, and like
// every simulated number they must not depend on the worker count.
func TestManifestKernelCountersAcrossWorkers(t *testing.T) {
	kernel := func(parallel string) map[string]sim.Stats {
		path := filepath.Join(t.TempDir(), "manifest.json")
		runCommand(t, append(small("-fig", "8a", "-mpl", "1,4", "-manifest", path), "-parallel", parallel)...)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var m struct {
			Reports []struct {
				ID     string `json:"id"`
				Detail struct {
					Kernel sim.Stats `json:"kernel"`
				} `json:"detail"`
			} `json:"job_reports"`
		}
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		out := map[string]sim.Stats{}
		for _, r := range m.Reports {
			k := r.Detail.Kernel
			if k.Events <= 0 {
				t.Fatalf("-parallel %s: job %s has implausible kernel counters %+v", parallel, r.ID, k)
			}
			out[r.ID] = k
		}
		if len(out) != 6 {
			t.Fatalf("-parallel %s: %d job reports, want 6", parallel, len(out))
		}
		return out
	}
	if one, two := kernel("1"), kernel("2"); !reflect.DeepEqual(one, two) {
		t.Fatalf("kernel counters differ:\n-parallel 1: %+v\n-parallel 2: %+v", one, two)
	}
}

// FuzzParseKill checks the -kill-disk/-kill-node item parser: every
// accepted n@t[+d] names a non-negative node and offset, with a positive
// recovery duration whenever the + suffix is present, and reprinting an
// accepted event reparses to the same event.
func FuzzParseKill(f *testing.F) {
	for _, s := range []string{"1@2ms", "0@0s", "3@1.5s+250ms", "2@1h+1ns", "1@2ms+", "1@+5ms",
		"-1@1ms", "1@-1ms", "1@1ms+0s", "x@1ms", "1@1ms@2ms", "+1@1ms", "1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ev, err := parseKill(s, fault.DiskFail)
		if err != nil {
			return
		}
		if ev.Node < 0 || ev.At < 0 {
			t.Fatalf("parseKill(%q) = %+v: negative node or offset", s, ev)
		}
		if _, when, _ := strings.Cut(s, "@"); strings.Contains(when, "+") && ev.Dur <= 0 {
			t.Fatalf("parseKill(%q) = %+v: + suffix without a positive duration", s, ev)
		}
		again := fmt.Sprintf("%d@%s", ev.Node, time.Duration(ev.At))
		if ev.Dur > 0 {
			again += "+" + time.Duration(ev.Dur).String()
		}
		back, err := parseKill(again, fault.DiskFail)
		if err != nil || back != ev {
			t.Fatalf("parseKill(%q) = %+v, reprinted %q reparses to %+v (%v)", s, ev, again, back, err)
		}
	})
}
