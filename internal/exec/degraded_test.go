package exec

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/storage"
)

// degradedRig is a two-node machine with chained replicas (node i's fragment
// mirrored on node (i+1)%2) and the degraded scheduler armed, plus handles
// on the disks for direct fault injection.
type degradedRig struct {
	eng   *sim.Engine
	net   *hw.Network
	nodes []*Node
	disks []*hw.Disk
	host  *Host
	view  *fault.View
	rel   *storage.Relation
}

func newDegradedRig(t *testing.T) *degradedRig {
	t.Helper()
	eng := sim.New()
	params := hw.DefaultParams()
	costs := DefaultCosts()
	streams := rng.NewFactory(5)

	cpus := make([]*hw.CPU, rigNodes+1)
	for i := 0; i < rigNodes; i++ {
		cpus[i] = hw.NewCPU(eng, "cpu", params)
	}
	net := hw.NewNetwork(eng, params, cpus)

	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	placement := core.NewRangeForRelation(rel, storage.Unique1, rigNodes)
	r := &degradedRig{eng: eng, net: net, rel: rel}
	layout := storage.Layout{TuplesPerPage: 8, IndexFanout: 8, IndexLeafCap: 8}

	byHome := make([][]int32, rigNodes)
	for row, tup := range rel.Tuples {
		h := placement.HomeOf(&tup)
		byHome[h] = append(byHome[h], int32(row))
	}
	allocs := make([]*storage.Allocator, rigNodes)
	for i := 0; i < rigNodes; i++ {
		disk := hw.NewDisk(eng, "disk", params, cpus[i], streams.Stream("lat"))
		pool := buffer.NewPool(eng, 16, disk)
		n := NewNode(eng, i, params, costs, net, cpus[i], disk, pool)
		allocs[i] = storage.NewAllocator(10000)
		frag := indexedFragment(i, rel.Tuples, byHome[i], layout, allocs[i])
		n.Attach(0, rel.Name, Primary, Holding{Frag: frag})
		r.nodes = append(r.nodes, n)
		r.disks = append(r.disks, disk)
	}
	// Chained replicas: node i's fragment is rebuilt, with the same indexes,
	// on its chain successor — keyed by i so rerouted operators answer for
	// the primary home.
	for i := 0; i < rigNodes; i++ {
		b := core.ChainBackup(i, rigNodes)
		frag := indexedFragment(i, rel.Tuples, byHome[i], layout, allocs[b])
		r.nodes[b].Attach(0, rel.Name, Backup, Holding{Frag: frag})
	}
	for _, n := range r.nodes {
		n.Start()
	}
	r.view = fault.NewView(rigNodes)
	r.host = NewHost(eng, rigNodes, params, net, costs)
	r.host.AddRelation(rel.Name, placement)
	r.host.Degraded = &Degraded{
		Policy: DefaultRetryPolicy(),
		View:   r.view,
		Backup: func(slot, slots int) int {
			if slots <= 0 {
				slots = rigNodes
			}
			return core.ChainBackup(slot, slots)
		},
		Jitter: streams.Stream("retry.jitter"),
	}
	r.host.Start()
	return r
}

// bothNodes is a range over B that touches both fragments.
var bothNodes = core.Predicate{Attr: storage.Unique2, Lo: 50, Hi: 69}

func (r *degradedRig) execute(t *testing.T) QueryResult {
	t.Helper()
	var res QueryResult
	simtest.Spawn(r.eng, "probe", func(p *simtest.Proc) {
		res = submit(p, r.host, selectOn(r.rel.Name, bothNodes))
		r.eng.Stop()
	})
	if err := r.eng.RunUntil(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	return res
}

// With nothing broken, the scheduler under an armed retry policy must agree
// with its answer under the zero policy (no Degraded config).
func TestDegradedHealthyMatchesLegacy(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	legacy := newRig(t, core.NewRangeForRelation(rel, storage.Unique1, 2)).execute(t, bothNodes)
	res := newDegradedRig(t).execute(t)
	if res.Outcome != OutcomeOK || res.Retries != 0 {
		t.Fatalf("healthy degraded run: outcome=%v retries=%d", res.Outcome, res.Retries)
	}
	if res.Tuples != legacy.Tuples || res.ProcessorsUsed != legacy.ProcessorsUsed {
		t.Fatalf("degraded answer differs from legacy: %d tuples on %d procs vs %d on %d",
			res.Tuples, res.ProcessorsUsed, legacy.Tuples, legacy.ProcessorsUsed)
	}
}

// A fail-stopped disk the view knows about: operators for its fragment are
// dispatched straight to the chain backup; the full answer still comes back.
func TestDegradedReroutesAroundKnownDeadDisk(t *testing.T) {
	r := newDegradedRig(t)
	r.eng.Schedule(0, func() {
		r.disks[0].Fail()
		r.view.SetDisk(0, false)
	})
	res := r.execute(t)
	if res.Tuples != 20 {
		t.Fatalf("got %d tuples, want the full 20 via the backup", res.Tuples)
	}
	if !res.Outcome.Succeeded() {
		t.Fatalf("outcome = %v, err = %v", res.Outcome, res.Err)
	}
	if r.nodes[1].OpsExecuted != 2 {
		t.Fatalf("node 1 ran %d ops, want 2 (its own + node 0's rerouted)", r.nodes[1].OpsExecuted)
	}
}

// A disk failure the view has NOT noticed: the first dispatch errors, the
// retry path flips to the backup, and the query completes as Retried.
func TestDegradedRetriesOnUnannouncedDiskFailure(t *testing.T) {
	r := newDegradedRig(t)
	r.eng.Schedule(0, func() { r.disks[0].Fail() })
	res := r.execute(t)
	if res.Tuples != 20 {
		t.Fatalf("got %d tuples, want 20", res.Tuples)
	}
	if res.Outcome != OutcomeRetried || res.Retries == 0 {
		t.Fatalf("outcome = %v, retries = %d, want a retried success", res.Outcome, res.Retries)
	}
}

// Aggregates ride the same collector: an unannounced disk failure reroutes
// the failed partial to the backup, and the combined value is exact.
func TestDegradedAggregateRetriesOnUnannouncedDiskFailure(t *testing.T) {
	r := newDegradedRig(t)
	r.eng.Schedule(0, func() { r.disks[0].Fail() })
	var want int64
	for _, tup := range r.rel.Tuples {
		if v := tup.Attrs[bothNodes.Attr]; v >= bothNodes.Lo && v <= bothNodes.Hi {
			want += tup.Attrs[storage.Unique1]
		}
	}
	var res QueryResult
	simtest.Spawn(r.eng, "probe", func(p *simtest.Proc) {
		res = submit(p, r.host, plan.NewAggregate(plan.AggSum, storage.Unique1,
			plan.NewIndexScan(r.rel.Name, bothNodes, plan.AccessClustered)))
		r.eng.Stop()
	})
	if err := r.eng.RunUntil(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeRetried || res.Value != want || res.Tuples != 20 {
		t.Fatalf("aggregate: %v, sum %d over %d tuples (%v); want retried, sum %d over 20",
			res.Outcome, res.Value, res.Tuples, res.Err, want)
	}
}

// A transient I/O error retries on the same node and succeeds without
// touching the backup.
func TestDegradedRetriesTransientIOError(t *testing.T) {
	r := newDegradedRig(t)
	r.disks[0].FailNextReads(1)
	res := r.execute(t)
	if res.Tuples != 20 {
		t.Fatalf("got %d tuples, want 20", res.Tuples)
	}
	if !res.Outcome.Succeeded() {
		t.Fatalf("outcome = %v, err = %v", res.Outcome, res.Err)
	}
	if res.Retries == 0 {
		t.Fatal("transient error should have cost at least one retry")
	}
}

// Both nodes dead and the view oblivious: with the default policy the op
// retries exhaust first and the query fails; with an unbounded retry budget
// the query deadline is the backstop and the query is abandoned as
// OutcomeTimedOut. Either way the simulation must not hang.
func TestDegradedFailsWhenRetriesExhaust(t *testing.T) {
	r := newDegradedRig(t)
	r.eng.Schedule(0, func() {
		r.nodes[0].Crash()
		r.nodes[1].Crash()
	})
	res := r.execute(t)
	if res.Outcome != OutcomeFailed {
		t.Fatalf("outcome = %v, want failed (3 retries × 2s op timeout < 20s deadline)", res.Outcome)
	}
	if res.Err == nil {
		t.Fatal("abandoned query should carry an error")
	}
}

func TestDegradedTimesOutWhenMachineIsDead(t *testing.T) {
	r := newDegradedRig(t)
	r.host.Degraded.Policy.MaxRetries = 1000 // deadline, not retry budget, is the backstop
	r.eng.Schedule(0, func() {
		r.nodes[0].Crash()
		r.nodes[1].Crash()
	})
	res := r.execute(t)
	if res.Outcome != OutcomeTimedOut {
		t.Fatalf("outcome = %v, want timed out at the query deadline", res.Outcome)
	}
	if res.Err == nil {
		t.Fatal("abandoned query should carry an error")
	}
}

// A crashed node that restarts mid-query: the suppressed-epoch discipline
// means its stale replies are dropped rather than double-counted, and the
// retry path still completes the query.
func TestDegradedSurvivesCrashRestartWindow(t *testing.T) {
	r := newDegradedRig(t)
	r.eng.Schedule(0, func() { r.nodes[0].Crash() })
	r.eng.Schedule(sim.Second, func() {
		r.nodes[0].Restart()
		r.view.SetNode(0, true)
	})
	res := r.execute(t)
	if res.Tuples != 20 {
		t.Fatalf("got %d tuples, want 20", res.Tuples)
	}
	if !res.Outcome.Succeeded() {
		t.Fatalf("outcome = %v, err = %v", res.Outcome, res.Err)
	}
}

// Duplicated result packets (the interconnect's NetDup fault): the
// at-most-once attempt accounting absorbs the copy as an orphan instead of
// double-counting tuples or panicking.
func TestDegradedAbsorbsDuplicatedReplies(t *testing.T) {
	r := newDegradedRig(t)
	r.net.DupNext(2, 4) // duplicate the next 4 messages addressed to the host
	res := r.execute(t)
	if res.Tuples != 20 {
		t.Fatalf("got %d tuples, want 20 exactly once", res.Tuples)
	}
	if !res.Outcome.Succeeded() {
		t.Fatalf("outcome = %v, err = %v", res.Outcome, res.Err)
	}
	if r.host.Orphans == 0 {
		t.Fatal("duplicated replies should surface as orphans")
	}
}

// Duplicated requests (DupNext on a node) start two operators on one
// request record, and duplicated replies bring a record back twice. The
// record counts every holder, so each query counts its tuples once, and
// once the machine is quiet every record the host took is back on its
// free list, exactly once.
func TestDuplicatedMessagesRecycleRecords(t *testing.T) {
	r := newDegradedRig(t)
	r.net.DupNext(0, 3)
	r.net.DupNext(1, 3)
	r.net.DupNext(2, 6)
	var results []QueryResult
	simtest.Spawn(r.eng, "probe", func(p *simtest.Proc) {
		for i := 0; i < 4; i++ {
			results = append(results, submit(p, r.host, selectOn(r.rel.Name, bothNodes)))
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("%d of 4 queries finished", len(results))
	}
	for i, res := range results {
		if res.Tuples != 20 || !res.Outcome.Succeeded() {
			t.Fatalf("query %d: %d tuples, outcome %v (%v), want 20 once", i, res.Tuples, res.Outcome, res.Err)
		}
	}
	if r.host.Orphans == 0 {
		t.Fatal("no duplicate reached the host")
	}
	h := r.host
	if len(h.sels) == 0 || len(h.freeSel) != len(h.sels) {
		t.Fatalf("%d of the host's %d request records are free", len(h.freeSel), len(h.sels))
	}
	free := map[*startOp]bool{}
	for _, rec := range h.freeSel {
		if free[rec] || rec.holds.n != 0 {
			t.Fatalf("a request record is free twice, or still held (%d holds)", rec.holds.n)
		}
		free[rec] = true
	}
}
