package gamma

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Golden determinism: a fixed seed and fault spec must reproduce the run
// exactly — identical fault-event log, identical figure-level numbers —
// across repeated runs of the same machine.
func TestFaultRunDeterministic(t *testing.T) {
	rel := smallRelation(t, 0)
	cfg := DefaultConfig()
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

	legacy, err := buildRange(t, rel, DefaultConfig()).Run(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
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
	cfg := DefaultConfig()
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
	cfg := DefaultConfig()
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
	cfg := DefaultConfig()
	cfg.Faults = &fault.Spec{Events: []fault.Event{
		{At: sim.Millisecond, Kind: fault.DiskFail, Node: 99},
	}}
	pl := buildRange(t, rel, DefaultConfig()).Placement
	if _, err := Build(rel, pl, cfg); err == nil {
		t.Fatal("Build accepted an out-of-range fault target")
	}
}

// shapeQueries returns one query of each plan shape over the tuples of rel
// with unique2 in [0, |rel|-1] — all of them: the selection, a COUNT over
// it, and a self-join of it on the key unique1. Each answers |rel|.
func shapeQueries(rel *storage.Relation) (sel, count, join *plan.Node) {
	pred := core.Predicate{Attr: storage.Unique2, Lo: 0, Hi: int64(rel.Cardinality() - 1)}
	scan := func() *plan.Node { return plan.NewIndexScan(rel.Name, pred, plan.AccessClustered) }
	return scan(), plan.NewAggregate(plan.AggCount, 0, scan()),
		plan.NewJoin(storage.Unique1, scan(), scan())
}

// submitEach resets m and submits the plans one after another from a single
// process, after wait (if any) returns, until the last completes or 100
// simulated seconds pass. It fails the test unless every plan completed.
func submitEach(t *testing.T, m *Machine, wait func(p *simtest.Proc), plans ...*plan.Node) []exec.QueryResult {
	t.Helper()
	m.Reset()
	var res []exec.QueryResult
	simtest.Spawn(m.Eng, "client", func(p *simtest.Proc) {
		if wait != nil {
			wait(p)
		}
		for _, q := range plans {
			res = append(res, submit(p, m.Host, q))
		}
		m.Eng.Stop()
	})
	if err := m.Eng.RunUntil(sim.Time(100 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if len(res) != len(plans) {
		t.Fatalf("%d of %d queries completed in 100s", len(res), len(plans))
	}
	return res
}

// checkServedByBackup fails unless an aggregate counted all of rel with
// node 1's fragment served by its chained backup and nothing by node 1.
func checkServedByBackup(t *testing.T, rel *storage.Relation, agg exec.QueryResult) {
	t.Helper()
	if !agg.Outcome.Succeeded() || agg.Value != int64(rel.Cardinality()) {
		t.Fatalf("aggregate: %v with count %d (%v), want %d", agg.Outcome, agg.Value, agg.Err, rel.Cardinality())
	}
	backup := false
	for _, op := range agg.ServedBy {
		if op.Node == 1 {
			t.Fatalf("aggregate operator served by node 1: %v", op)
		}
		backup = backup || (op.Fragment == 1 && op.Backup)
	}
	if !backup {
		t.Fatalf("node 1's fragment not served by its backup: %v", agg.ServedBy)
	}
}

// With node 1's disk failed from the start, an aggregate's operator for
// node 1's fragment goes to the chained backup, as a selection's does, and
// a join — whose operators have no replica failover — fails with the disk
// error instead of panicking the run.
func TestDiskFailAggregateAndJoin(t *testing.T) {
	rel := elasticRelation(t)
	cfg := DefaultConfig()
	cfg.ChainedReplicas = true
	cfg.Faults = &fault.Spec{Events: []fault.Event{{Kind: fault.DiskFail, Node: 1}}}
	m := buildRange(t, rel, cfg)
	_, count, join := shapeQueries(rel)
	res := submitEach(t, m, nil, count, join)
	checkServedByBackup(t, rel, res[0])
	if j := res[1]; j.Outcome != exec.OutcomeFailed || j.Err == nil || !strings.Contains(j.Err.Error(), "disk failed") {
		t.Fatalf("join: %v (%v), want failed with the disk error", j.Outcome, j.Err)
	}
}

// With node 1 crashed from the start, an aggregate is served by the chained
// backup, and a join — whose scans and operators on node 1 never answer —
// is abandoned at the query deadline instead of waiting out the crash.
func TestNodeCrashAggregateAndJoin(t *testing.T) {
	rel := elasticRelation(t)
	cfg := DefaultConfig()
	cfg.ChainedReplicas = true
	cfg.Faults = &fault.Spec{Events: []fault.Event{{Kind: fault.NodeCrash, Node: 1, Dur: 100 * sim.Second}}}
	m := buildRange(t, rel, cfg)
	_, count, join := shapeQueries(rel)
	res := submitEach(t, m, nil, count, join)
	checkServedByBackup(t, rel, res[0])
	deadline := exec.DefaultRetryPolicy().QueryDeadline
	if j := res[1]; j.Outcome != exec.OutcomeTimedOut || sim.Duration(j.Completed-j.Submitted) > deadline+sim.Second {
		t.Fatalf("join: %v after %.0fms (%v), want timed out by the %v deadline",
			j.Outcome, j.ResponseMS(), j.Err, deadline)
	}
}
