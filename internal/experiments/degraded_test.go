package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

func TestKillSpec(t *testing.T) {
	if s, err := KillSpec(0, 8); err != nil || s.Enabled() {
		t.Fatalf("k=0 spec should inject nothing: %v, %v", s, err)
	}
	s, err := KillSpec(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 2 {
		t.Fatalf("events = %v", s.Events)
	}
	if s.Events[0].Node != 0 || s.Events[1].Node != 4 {
		t.Fatalf("k=2 over 8 nodes should spread to {0, 4}, got %v", s.Events)
	}
	for _, ev := range s.Events {
		if ev.Kind != fault.DiskFail || ev.Dur != 0 {
			t.Fatalf("want permanent fail-stops, got %+v", ev)
		}
	}
	if err := s.Validate(8); err != nil {
		t.Fatal(err)
	}
	// A machine has only p disks: k > p would fail some disks twice while
	// the table reported k.
	if s, err := KillSpec(8, 8); err != nil || len(s.Events) != 8 {
		t.Fatalf("k=p: %v, %v", s, err)
	}
	for _, k := range []int{9, 40, -1} {
		if _, err := KillSpec(k, 8); err == nil {
			t.Errorf("KillSpec(%d, 8) accepted", k)
		}
	}
	if _, err := DegradedScenario(nil, []int{0, 40}, Options{Processors: 4}); err == nil {
		t.Error("degraded scenario accepted k=40 on 4 processors")
	}
}

// Disks failed by the sweep come on top of the faults opts already arms.
func TestDegradedScenarioKeepsArmedFaults(t *testing.T) {
	opts := Options{Processors: 8}
	opts.ArmFaults(&fault.Spec{MTBF: 5 * sim.Millisecond,
		Events: []fault.Event{{At: 2 * sim.Millisecond, Kind: fault.NodeCrash, Node: 3}}}, false)
	sc, err := DegradedScenario(nil, []int{0, 2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Sweep) != 2 || sc.Sweep[1].Tag != "k2" || sc.Sweep[1].Level != 2 {
		t.Fatalf("sweep = %+v", sc.Sweep)
	}
	for i, want := range []int{1, 3} {
		f := sc.Sweep[i].Options.Faults
		if len(f.Events) != want || f.MTBF != opts.Faults.MTBF || f.Events[0].Kind != fault.NodeCrash {
			t.Errorf("variant %d faults = %+v", i, f)
		}
		if !sc.Sweep[i].Options.ChainedReplicas {
			t.Errorf("variant %d runs without chained replicas", i)
		}
	}
	if len(opts.Faults.Events) != 1 {
		t.Fatalf("the caller's spec was modified: %+v", opts.Faults)
	}
}

// The degraded campaign must complete for every (strategy, k) cell with a
// healthy majority of queries, carry the fault events into the manifest,
// and be reproducible run to run.
func TestRunDegradedCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs are slow")
	}
	fig, err := FigureByID("8a")
	if err != nil {
		t.Fatal(err)
	}
	opts := campaignTestOptions()
	opts.MPLs = []int{4}
	ks := []int{0, 1, 2}

	sc, err := DegradedScenario([]Figure{fig}, ks, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(sc, CampaignOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	dr, manifest := res.Degraded()[0], res.Manifest
	wantPoints := len(fig.Strategies) * len(ks) * len(opts.MPLs)
	if len(dr.Points) != wantPoints {
		t.Fatalf("points = %d, want %d", len(dr.Points), wantPoints)
	}
	for _, p := range dr.Points {
		if p.Result.Outcomes.Succeeded() == 0 {
			t.Fatalf("%s k=%d: no queries succeeded: %s", p.Strategy, p.K, p.Result.Outcomes)
		}
		if len(p.Result.FaultLog) != p.K {
			t.Fatalf("%s k=%d: fault log has %d records", p.Strategy, p.K, len(p.Result.FaultLog))
		}
		if p.Result.ThroughputQPS <= 0 {
			t.Fatalf("%s k=%d: throughput %g", p.Strategy, p.K, p.Result.ThroughputQPS)
		}
	}
	if dr.Outcomes().Succeeded() == 0 {
		t.Fatal("aggregate outcomes empty")
	}
	if !strings.Contains(dr.Outcomes().String(), "ok=") {
		t.Fatalf("outcome summary %q missing the CI grep format", dr.Outcomes().String())
	}

	// Fault events land in the manifest, aligned with job order.
	if manifest.Jobs != wantPoints {
		t.Fatalf("manifest jobs = %d", manifest.Jobs)
	}
	withFaults := 0
	for _, rep := range manifest.Reports {
		if d, _ := rep.Detail.(JobDetail); d.FaultEvents > 0 {
			withFaults++
		}
	}
	if wantFaulty := len(fig.Strategies) * 2; withFaults != wantFaulty {
		t.Fatalf("%d jobs report fault events, want %d (k=1 and k=2 per strategy)", withFaults, wantFaulty)
	}

	// Reproducibility: a second campaign with the same options agrees point
	// for point, fault logs included.
	res2, err := RunScenario(sc, CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dr2 := res2.Degraded()[0]
	if !reflect.DeepEqual(dr.Points, dr2.Points) {
		t.Fatal("degraded campaign is not reproducible across runs/worker counts")
	}
}
