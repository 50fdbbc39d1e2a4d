package gamma

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/rebalance"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/storage"
	"repro/internal/workload"
)

// rangeRebuild is the placement factory elastic tests use: rebuild the
// range partitioning from scratch at the new node count.
func rangeRebuild(rel *storage.Relation, procs int) (core.Placement, error) {
	return core.NewRangeForRelation(rel, storage.Unique1, procs), nil
}

// elasticRelation is smaller than smallRelation: a rebalance copy pays
// real disk latency per page, so fewer pages keep the copy window well
// inside the test runs' simulated span.
func elasticRelation(t *testing.T) *storage.Relation {
	t.Helper()
	return storage.GenerateWisconsin(storage.GenSpec{Cardinality: 1000, Seed: 11})
}

func elasticConfig(events ...rebalance.Event) Config {
	cfg := DefaultConfig()
	cfg.Elastic = &ElasticSpec{Events: events, Rebuild: rangeRebuild}
	return cfg
}

// servingFrag returns the fragment node phys serves in role at the
// controller's generation, or nil when it holds none.
func servingFrag(m *Machine, phys int, relation string, role exec.Role) *storage.Fragment {
	h, err := m.Nodes[phys].Resolve(relation, role, m.Rebalancer.Gen())
	if err != nil {
		return nil
	}
	return h.Frag
}

// memberTIDs collects every member fragment's tuple ids, failing on
// duplicates (a tuple served by two primaries would double-count).
func memberTIDs(t *testing.T, m *Machine) map[int64]bool {
	t.Helper()
	seen := make(map[int64]bool)
	for _, phys := range m.Rebalancer.Members() {
		frag := servingFrag(m, phys, m.Relation.Name, exec.Primary)
		if frag == nil {
			t.Fatalf("member node %d holds no fragment after rebalance", phys)
		}
		for slot := range frag.NumTuples() {
			tid := frag.Tuple(slot).TID
			if seen[tid] {
				t.Fatalf("tuple %d appears on two member primaries", tid)
			}
			seen[tid] = true
		}
	}
	return seen
}

// A join then a decommission under live closed-loop traffic: every query
// completes (the dual-read epoch covers in-flight queries across each
// cutover), both transitions execute, and data actually moves.
func TestElasticJoinDecommissionUnderLoad(t *testing.T) {
	rel := elasticRelation(t)
	cfg := elasticConfig(
		rebalance.Event{At: 100 * sim.Millisecond, Kind: rebalance.Join},
		rebalance.Event{At: 600 * sim.Millisecond, Kind: rebalance.Decommission, Node: 1},
	)
	m := buildRange(t, rel, cfg)
	if len(m.Nodes) != 9 {
		t.Fatalf("machine built %d physical nodes, want 8 + 1 standby", len(m.Nodes))
	}
	res, err := m.Run(workload.LowLow(rel.Cardinality()), RunSpec{MPL: 4, WarmupQueries: 5, MeasureQueries: 600})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes.Failed != 0 || res.Outcomes.TimedOut != 0 {
		t.Fatalf("outcomes %v: rebalancing must not fail queries", res.Outcomes)
	}
	rep := res.Rebalance
	if rep == nil || len(rep.Tasks) != 2 {
		t.Fatalf("rebalance report = %+v, want 2 executed tasks", rep)
	}
	for _, task := range rep.Tasks {
		if task.Err != "" {
			t.Fatalf("task %s on node %d failed: %s", task.Kind, task.Node, task.Err)
		}
		if task.Rebalance() <= 0 {
			t.Fatalf("task %s reports non-positive time-to-rebalance %v", task.Kind, task.Rebalance())
		}
	}
	if rep.Tuples == 0 || rep.BytesMoved == 0 {
		t.Fatalf("report %+v: transitions between different node counts must move data", rep)
	}
	if got, want := m.Rebalancer.Gen(), 2; got != want {
		t.Fatalf("generation = %d, want %d", got, want)
	}
	// 8 initial + 1 join - node 1 = members {0, 2..8}.
	members := m.Rebalancer.Members()
	if len(members) != 8 {
		t.Fatalf("members = %v, want 8 after join+decommission", members)
	}
	for _, phys := range members {
		if phys == 1 {
			t.Fatalf("members = %v still include decommissioned node 1", members)
		}
	}
	if tids := memberTIDs(t, m); len(tids) != rel.Cardinality() {
		t.Fatalf("members hold %d distinct tuples, want %d", len(tids), rel.Cardinality())
	}
}

// The same elastic run twice must replay byte-identically: the controller,
// copier and cutovers are ordinary simulation events driven by the same
// seeds. (The CLI-level -parallel determinism gate rides on this.)
func TestElasticRunDeterministic(t *testing.T) {
	rel := elasticRelation(t)
	cfg := elasticConfig(
		rebalance.Event{At: 100 * sim.Millisecond, Kind: rebalance.Join},
		rebalance.Event{At: 500 * sim.Millisecond, Kind: rebalance.Leave, Node: 2},
	)
	mix := workload.LowLow(rel.Cardinality())
	spec := RunSpec{MPL: 4, WarmupQueries: 5, MeasureQueries: 400}
	m := buildRange(t, rel, cfg)
	a, err := m.Run(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Run(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed+spec elastic runs diverge:\n%+v\n%+v", a, b)
	}
}

// A join moves the serving generation to nine slots for the rest of that
// run only: the next run starts again from the built eight-slot placement
// and storage image, so it replays the first run exactly.
func TestElasticRunTwiceAfterJoin(t *testing.T) {
	rel := elasticRelation(t)
	m := buildRange(t, rel, elasticConfig(rebalance.Event{At: 100 * sim.Millisecond, Kind: rebalance.Join}))
	mix := workload.LowLow(rel.Cardinality())
	spec := RunSpec{MPL: 4, WarmupQueries: 5, MeasureQueries: 400}
	a, err := m.Run(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rebalance == nil || len(a.Rebalance.Tasks) != 1 || a.Rebalance.Tasks[0].Err != "" {
		t.Fatalf("first run's rebalance report = %+v, want one clean join", a.Rebalance)
	}
	b, err := m.Run(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("second run after a join diverges:\n%+v\n%+v", a, b)
	}
}

// Post-rebalance placement equals a from-scratch build at the new node
// count: each member's fragment holds exactly the tuples a fresh range
// partitioning over the surviving membership would assign to its slot.
func TestElasticPostRebalanceMatchesFromScratch(t *testing.T) {
	rel := elasticRelation(t)
	cfg := elasticConfig(rebalance.Event{At: 100 * sim.Millisecond, Kind: rebalance.Join})
	m := buildRange(t, rel, cfg)
	if _, err := m.Run(workload.LowLow(rel.Cardinality()), RunSpec{MPL: 4, WarmupQueries: 5, MeasureQueries: 400}); err != nil {
		t.Fatal(err)
	}
	members := m.Rebalancer.Members()
	if len(members) != 9 {
		t.Fatalf("members = %v, want 9 after the join", members)
	}
	fresh, err := rangeRebuild(rel, len(members))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int][]int64) // slot -> sorted TIDs
	for _, tup := range rel.Tuples {
		h := fresh.HomeOf(&tup)
		want[h] = append(want[h], tup.TID)
	}
	for slot, phys := range members {
		frag := servingFrag(m, phys, rel.Name, exec.Primary)
		if frag == nil {
			t.Fatalf("slot %d (node %d) has no fragment", slot, phys)
		}
		got := make([]int64, 0, frag.NumTuples())
		for i := range frag.NumTuples() {
			got = append(got, frag.Tuple(i).TID)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want[slot], func(i, j int) bool { return want[slot][i] < want[slot][j] })
		if !reflect.DeepEqual(got, want[slot]) {
			t.Fatalf("slot %d: rebalanced fragment holds %d tuples, from-scratch build %d (or different sets)",
				slot, len(got), len(want[slot]))
		}
	}
}

// A permanent node crash in the middle of a join's copy window: the crash
// is promoted to a repair task that drains the dead member's data (its
// disk outlives the node process) and rebuilds the chain replicas; the
// repair converges with no lost or double-counted fragments. Run under
// -race in CI — the injector callback, the controller mailbox and the
// dispatcher interleave here.
func TestElasticRepairAfterCrashMidMigration(t *testing.T) {
	rel := elasticRelation(t)
	cfg := DefaultConfig()
	cfg.Elastic = &ElasticSpec{
		Events: []rebalance.Event{{At: 100 * sim.Millisecond, Kind: rebalance.Join}},
		// Slow copier: the join's copy window stays open well past the
		// crash, so the repair request genuinely arrives mid-migration.
		RatePagesPerSec: 500,
		Rebuild:         rangeRebuild,
	}
	cfg.ChainedReplicas = true
	cfg.Faults = &fault.Spec{Events: []fault.Event{
		{At: 200 * sim.Millisecond, Kind: fault.NodeCrash, Node: 3}, // Dur 0: permanent
	}}
	m := buildRange(t, rel, cfg)
	res, err := m.Run(workload.LowLow(rel.Cardinality()), RunSpec{MPL: 4, WarmupQueries: 5, MeasureQueries: 800})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Rebalance
	if rep == nil || len(rep.Tasks) != 2 {
		t.Fatalf("rebalance report = %+v, want join + repair", rep)
	}
	if rep.Tasks[0].Kind != "join" || rep.Tasks[1].Kind != "repair" {
		t.Fatalf("tasks = [%s %s], want [join repair]", rep.Tasks[0].Kind, rep.Tasks[1].Kind)
	}
	repair := rep.Tasks[1]
	if repair.Err != "" {
		t.Fatalf("repair failed: %s", repair.Err)
	}
	if repair.Node != 3 {
		t.Fatalf("repair removed node %d, want the crashed node 3", repair.Node)
	}
	members := m.Rebalancer.Members()
	for _, phys := range members {
		if phys == 3 {
			t.Fatalf("members = %v still include crashed node 3", members)
		}
	}
	if tids := memberTIDs(t, m); len(tids) != rel.Cardinality() {
		t.Fatalf("members hold %d distinct tuples, want %d — repair lost data", len(tids), rel.Cardinality())
	}
	// Chain replicas were rebuilt for the new membership: every slot's
	// backup exists on its successor member.
	n := len(members)
	for slot := 0; slot < n; slot++ {
		b := core.ChainBackup(slot, n)
		if b < 0 {
			continue
		}
		if servingFrag(m, members[b], rel.Name, exec.Backup) == nil {
			t.Fatalf("slot %d has no chain replica on member %d after repair", slot, members[b])
		}
	}
}

// After node 1 is decommissioned, every plan shape resolves slots through
// the new topology: the selection, a COUNT over it and a self-join all
// answer from the surviving members.
func TestDecommissionedNodeServesNoPlanShape(t *testing.T) {
	rel := elasticRelation(t)
	m := buildRange(t, rel, elasticConfig(
		rebalance.Event{At: 10 * sim.Millisecond, Kind: rebalance.Decommission, Node: 1}))
	sel, count, join := shapeQueries(rel)
	cutover := func(p *simtest.Proc) {
		for m.Rebalancer.Gen() < 1 {
			p.Hold(10 * sim.Millisecond)
		}
	}
	res := submitEach(t, m, cutover, sel, count, join)
	want := rel.Cardinality()
	if res[0].Tuples != want || res[1].Value != int64(want) || res[2].Tuples != want {
		t.Fatalf("selection %d tuples, count %d, join %d matches; want %d each",
			res[0].Tuples, res[1].Value, res[2].Tuples, want)
	}
	for i, r := range res {
		if r.Outcome != exec.OutcomeOK {
			t.Fatalf("query %d: %v (%v)", i, r.Outcome, r.Err)
		}
	}
}
