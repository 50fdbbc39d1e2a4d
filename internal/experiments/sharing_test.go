package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/gamma"
)

// TestRunSharingSavesReads runs the shared-scan campaign at quick scale on
// the Moderate-Low mix and checks the tentpole's acceptance bar: at MPL 8,
// at least one strategy reads >= 25% fewer disk pages per query with
// sharing on.
func TestRunSharingSavesReads(t *testing.T) {
	fig, err := FigureByID("11a")
	if err != nil {
		t.Fatal(err)
	}
	opts := QuickScale()
	opts.MPLs = []int{8}
	res, err := RunScenario(SharingScenario([]Figure{fig}, 0, opts), CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sr, manifest := res.Sharing()[0], res.Manifest
	if len(manifest.Reports) != 2*len(fig.Strategies) {
		t.Fatalf("manifest has %d jobs, want %d", len(manifest.Reports), 2*len(fig.Strategies))
	}
	if len(sr.Points) != len(fig.Strategies) {
		t.Fatalf("got %d points, want %d", len(sr.Points), len(fig.Strategies))
	}
	for _, p := range sr.Points {
		if p.Off.Sharing != nil {
			t.Errorf("%s: off run carried sharing stats", p.Strategy)
		}
		if p.On.Sharing == nil || p.On.Sharing.Batches == 0 {
			t.Errorf("%s: on run has no batching evidence: %+v", p.Strategy, p.On.Sharing)
		}
	}
	saved, best := sr.MaxSaved()
	t.Logf("best saving: %.1f%% (%s @ MPL %d)", 100*saved, best.Strategy, best.MPL)
	for _, line := range sr.Summary() {
		t.Log(line)
	}
	if saved < 0.25 {
		t.Errorf("best disk-read saving %.1f%% < 25%% acceptance bar", 100*saved)
	}
}

// TestRunSharingComposesWithFaults: the sharing campaign runs on the same
// scheduler as degraded mode, so a killed disk under chained replicas
// reroutes batched operators to their backups — both runs of every point
// keep answering, and the output is identical at any worker count. Only
// success is asserted, not zero failures: the campaign's third-size buffer
// pool loads the backup nodes heavily enough that a few queries fail even
// with sharing off.
func TestRunSharingComposesWithFaults(t *testing.T) {
	fig, err := FigureByID("11a")
	if err != nil {
		t.Fatal(err)
	}
	opts := QuickScale()
	opts.MPLs = []int{8}
	kill, err := KillSpec(1, opts.Processors)
	if err != nil {
		t.Fatal(err)
	}
	opts.ArmFaults(kill, true)
	run := func(workers int) SharingResult {
		res, err := RunScenario(SharingScenario([]Figure{fig}, 0, opts), CampaignOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res.Sharing()[0]
	}
	serial, parallel := run(1), run(4)
	if !reflect.DeepEqual(serial.Points, parallel.Points) {
		t.Fatal("sharing campaign under faults differs between 1 and 4 workers")
	}
	for _, p := range serial.Points {
		for _, r := range []gamma.RunResult{p.Off, p.On} {
			if len(r.FaultLog) == 0 {
				t.Errorf("%s: the disk fault was never applied", p.Strategy)
			}
			if r.Outcomes.Succeeded() == 0 {
				t.Errorf("%s: no query succeeded under one dead disk with replicas: %s", p.Strategy, r.Outcomes)
			}
		}
		if p.On.Sharing == nil || p.On.Sharing.Batches == 0 {
			t.Errorf("%s: on run has no batching evidence: %+v", p.Strategy, p.On.Sharing)
		}
	}
}

// TestSharingSummaryShape pins the greppable summary-line format CI's smoke
// job matches against.
func TestSharingSummaryShape(t *testing.T) {
	sr := SharingResult{Figure: Figure{ID: "11a"}}
	sr.Points = append(sr.Points, SharingPoint{Strategy: "range", MPL: 8})
	lines := sr.Summary()
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "sharing fig11a/range mpl=8: reads/qry ") {
		t.Fatalf("summary shape changed: %q", lines)
	}
}
