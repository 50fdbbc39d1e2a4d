package gamma

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Golden determinism: a fixed seed and fault spec must reproduce the run
// exactly — identical fault-event log, identical figure-level numbers —
// across repeated runs of the same machine.
func TestFaultRunDeterministic(t *testing.T) {
	rel := smallRelation(t, 0)
	cfg := smallConfig()
	cfg.ChainedReplicas = true
	cfg.Faults = &fault.Spec{
		Events: []fault.Event{
			{At: 5 * sim.Millisecond, Kind: fault.DiskFail, Node: 0, Dur: 200 * sim.Millisecond},
			{At: 10 * sim.Millisecond, Kind: fault.NodeCrash, Node: 3, Dur: 100 * sim.Millisecond},
		},
		MTBF: 100 * sim.Millisecond,
	}
	m := buildRange(t, rel, cfg)
	mix := workload.LowLow(rel.Cardinality())
	spec := RunSpec{MPL: 4, WarmupQueries: 10, MeasureQueries: 60}

	a, err := m.Run(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Run(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.FaultLog) < 4 {
		t.Fatalf("fault log has %d records, want the scheduled pair plus MTBF traffic", len(a.FaultLog))
	}
	if !reflect.DeepEqual(a.FaultLog, b.FaultLog) {
		t.Fatalf("same seed+spec produced different fault logs:\n%v\n%v", a.FaultLog, b.FaultLog)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed+spec produced different results:\n%+v\n%+v", a, b)
	}
	if a.Outcomes.Succeeded() == 0 {
		t.Fatalf("no queries succeeded under faults: %s", a.Outcomes)
	}
}

// An armed-but-empty fault spec and the plain config must produce identical
// results: the fault plumbing may not perturb a healthy run.
func TestEmptyFaultSpecMatchesLegacy(t *testing.T) {
	rel := smallRelation(t, 0)
	mix := workload.LowLow(rel.Cardinality())
	spec := RunSpec{MPL: 4, WarmupQueries: 10, MeasureQueries: 50}

	legacy, err := buildRange(t, rel, smallConfig()).Run(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Faults = &fault.Spec{} // Enabled() == false: arms no fault handling
	armed, err := buildRange(t, rel, cfg).Run(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy, armed) {
		t.Fatalf("empty fault spec perturbed the run:\n%+v\n%+v", legacy, armed)
	}
}

// Chained replicas keep a machine with a fail-stopped disk serving: queries
// whose primary fragment lives on the dead disk reroute to the chain
// successor and still succeed.
func TestDegradedRunSurvivesDiskKill(t *testing.T) {
	rel := smallRelation(t, 0)
	cfg := smallConfig()
	cfg.ChainedReplicas = true
	cfg.Faults = &fault.Spec{Events: []fault.Event{
		{At: sim.Millisecond, Kind: fault.DiskFail, Node: 2},
	}}
	m := buildRange(t, rel, cfg)
	mix := workload.LowLow(rel.Cardinality())
	res, err := m.Run(mix, RunSpec{MPL: 4, WarmupQueries: 10, MeasureQueries: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FaultLog) != 1 || res.FaultLog[0].Kind != "disk-fail" {
		t.Fatalf("fault log = %v", res.FaultLog)
	}
	if res.Outcomes.Succeeded() == 0 {
		t.Fatalf("no queries succeeded with one dead disk: %s", res.Outcomes)
	}
	if res.Outcomes.Failed > 0 || res.Outcomes.TimedOut > 0 {
		t.Fatalf("queries abandoned despite chained replicas: %s", res.Outcomes)
	}
	if res.ThroughputQPS <= 0 {
		t.Fatalf("throughput = %g", res.ThroughputQPS)
	}
}

// A node that crashes and restarts mid-run: in-flight operators time out or
// error, the retry path reroutes them, and the window still completes.
func TestDegradedRunSurvivesNodeCrashWindow(t *testing.T) {
	rel := smallRelation(t, 0)
	cfg := smallConfig()
	cfg.ChainedReplicas = true
	cfg.Faults = &fault.Spec{Events: []fault.Event{
		{At: 20 * sim.Millisecond, Kind: fault.NodeCrash, Node: 1, Dur: 300 * sim.Millisecond},
	}}
	m := buildRange(t, rel, cfg)
	mix := workload.LowLow(rel.Cardinality())
	res, err := m.Run(mix, RunSpec{MPL: 4, WarmupQueries: 10, MeasureQueries: 60})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes.Succeeded() == 0 {
		t.Fatalf("no queries succeeded through the crash window: %s", res.Outcomes)
	}
	if len(res.FaultLog) != 2 {
		t.Fatalf("fault log = %v, want crash + restart", res.FaultLog)
	}
}

// Fault-spec validation failures must surface at Build time, not mid-run.
func TestBuildRejectsBadFaultSpec(t *testing.T) {
	rel := smallRelation(t, 0)
	cfg := smallConfig()
	cfg.Faults = &fault.Spec{Events: []fault.Event{
		{At: sim.Millisecond, Kind: fault.DiskFail, Node: 99},
	}}
	pl := buildRange(t, rel, smallConfig()).Placement
	if _, err := Build(rel, pl, cfg); err == nil {
		t.Fatal("Build accepted an out-of-range fault target")
	}
}
