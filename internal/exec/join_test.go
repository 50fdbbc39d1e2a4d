package exec

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/storage"
)

// joinRig builds a machine with two relations ("wisconsin" as R and a
// second instance "s" as S) on nodes 0..p-1 plus the host.
type joinRig struct {
	eng   *sim.Engine
	net   *hw.Network
	host  *Host
	nodes []*Node
	r, s  *storage.Relation
}

func newJoinRig(t *testing.T, p int, rPl, sPl core.Placement) *joinRig {
	t.Helper()
	eng := sim.New()
	params := hw.DefaultParams()
	costs := DefaultCosts()
	streams := rng.NewFactory(5)

	cpus := make([]*hw.CPU, p+1)
	for i := 0; i < p; i++ {
		cpus[i] = hw.NewCPU(eng, "cpu", params)
	}
	net := hw.NewNetwork(eng, params, cpus)

	r := storage.GenerateWisconsin(storage.GenSpec{Name: "r", Cardinality: 300, Seed: 9})
	s := storage.GenerateWisconsin(storage.GenSpec{Name: "s", Cardinality: 120, Seed: 10})
	rig := &joinRig{eng: eng, net: net, r: r, s: s}
	layout := storage.Layout{TuplesPerPage: 8, IndexFanout: 8, IndexLeafCap: 8}
	for i := 0; i < p; i++ {
		disk := hw.NewDisk(eng, "disk", params, cpus[i], streams.Stream("lat"))
		pool := buffer.NewPool(eng, 16, disk)
		n := NewNode(eng, i, params, costs, net, cpus[i], disk, pool)
		for _, pair := range []struct {
			rel *storage.Relation
			pl  core.Placement
		}{{r, rPl}, {s, sPl}} {
			var rows []int32
			for row, tup := range pair.rel.Tuples {
				if pair.pl.HomeOf(tup) == i {
					rows = append(rows, int32(row))
				}
			}
			alloc := storage.NewAllocator(10000)
			frag := storage.BuildFragment(i, pair.rel.Tuples, rows, make([]int32, len(pair.rel.Tuples)), storage.Unique2, layout, alloc)
			frag.AddIndex(storage.Unique2, alloc)
			frag.AddIndex(storage.Unique1, alloc)
			n.Attach(0, pair.rel.Name, Primary, Holding{Frag: frag})
		}
		n.Start()
		rig.nodes = append(rig.nodes, n)
	}
	rig.host = NewHost(eng, p, params, net, costs)
	rig.host.AddRelation("r", rPl)
	rig.host.AddRelation("s", sPl)
	rig.host.Start()
	return rig
}

func (r *joinRig) join(t *testing.T, q *plan.Node) QueryResult {
	t.Helper()
	var res QueryResult
	r.eng.Spawn("probe", func(p *sim.Proc) {
		res = r.host.Submit(p, q)
		r.eng.Stop()
	})
	if err := r.eng.RunUntil(sim.Time(10 * 60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("join never completed")
	}
	return res
}

// joinSR joins s (build) with r (probe) on unique1.
var joinSR = plan.NewJoin(storage.Unique1, plan.NewScan("s"), plan.NewScan("r"))

// naiveJoinCount counts matches the slow way.
func naiveJoinCount(r, s *storage.Relation, rAttr, sAttr int,
	rPred, sPred *core.Predicate) int {
	keep := func(t storage.Tuple, pred *core.Predicate) bool {
		if pred == nil {
			return true
		}
		v := t.Attrs[pred.Attr]
		return v >= pred.Lo && v <= pred.Hi
	}
	byKey := map[int64]int{}
	for _, t := range r.Tuples {
		if keep(t, rPred) {
			byKey[t.Attrs[rAttr]]++
		}
	}
	matches := 0
	for _, t := range s.Tuples {
		if keep(t, sPred) {
			matches += byKey[t.Attrs[sAttr]]
		}
	}
	return matches
}

func TestRepartitionedJoinCorrect(t *testing.T) {
	r := storage.GenerateWisconsin(storage.GenSpec{Name: "r", Cardinality: 300, Seed: 9})
	s := storage.GenerateWisconsin(storage.GenSpec{Name: "s", Cardinality: 120, Seed: 10})
	rPl := core.NewRangeForRelation(r, storage.Unique1, 4)
	sPl := core.NewRangeForRelation(s, storage.Unique2, 4)
	rig := newJoinRig(t, 4, rPl, sPl)
	res := rig.join(t, joinSR)
	want := naiveJoinCount(rig.s, rig.r, storage.Unique1, storage.Unique1, nil, nil)
	if res.Tuples != want {
		t.Fatalf("matches = %d, want %d", res.Tuples, want)
	}
	if Colocated(sPl, rPl, storage.Unique1) {
		t.Fatal("range-declustered join must repartition")
	}
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v (%v)", res.Outcome, res.Err)
	}
	if res.ProcessorsUsed != 4 {
		t.Fatalf("used %d processors", res.ProcessorsUsed)
	}
	if res.ResponseMS() <= 0 {
		t.Fatal("no simulated time elapsed")
	}
}

// A join whose scan fails reports the failure once, and its aborted end
// markers retire every join operator of the query without a reply: once
// the machine is quiet, no node still holds one.
func TestFailedJoinScanRetiresJoinOperators(t *testing.T) {
	r := storage.GenerateWisconsin(storage.GenSpec{Name: "r", Cardinality: 300, Seed: 9})
	s := storage.GenerateWisconsin(storage.GenSpec{Name: "s", Cardinality: 120, Seed: 10})
	rig := newJoinRig(t, 2, core.NewRangeForRelation(r, storage.Unique1, 2), core.NewRangeForRelation(s, storage.Unique2, 2))
	rig.nodes[1].Disk.FailNextReads(1)
	var res QueryResult
	rig.eng.Spawn("probe", func(p *sim.Proc) { res = rig.host.Submit(p, joinSR) })
	if err := rig.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeFailed {
		t.Fatalf("outcome = %v (%v), want failed", res.Outcome, res.Err)
	}
	for i, n := range rig.nodes {
		if len(n.joins) > 0 {
			t.Errorf("node%d still holds %d join operators", i, len(n.joins))
		}
	}
	if rig.host.Orphans != 0 {
		t.Errorf("the failed join left %d orphaned replies, want none", rig.host.Orphans)
	}
}

func TestJoinWithPredicates(t *testing.T) {
	r := storage.GenerateWisconsin(storage.GenSpec{Name: "r", Cardinality: 300, Seed: 9})
	s := storage.GenerateWisconsin(storage.GenSpec{Name: "s", Cardinality: 120, Seed: 10})
	rig := newJoinRig(t, 4,
		core.NewRangeForRelation(r, storage.Unique1, 4),
		core.NewRangeForRelation(s, storage.Unique1, 4))
	bp := &core.Predicate{Attr: storage.Unique2, Lo: 0, Hi: 59}
	pp := &core.Predicate{Attr: storage.Unique2, Lo: 0, Hi: 199}
	res := rig.join(t, plan.NewJoin(storage.Unique1,
		plan.NewFilter(*bp, plan.NewScan("s")), plan.NewScanWhere("r", *pp)))
	want := naiveJoinCount(rig.s, rig.r, storage.Unique1, storage.Unique1, bp, pp)
	if want == 0 {
		t.Fatal("test construction: no matches expected at all")
	}
	if res.Tuples != want {
		t.Fatalf("matches = %d, want %d", res.Tuples, want)
	}
}

func TestCoLocatedJoinSkipsRepartitioning(t *testing.T) {
	rPl, sPl := core.NewHash(storage.Unique1, 4), core.NewHash(storage.Unique1, 4)
	rig := newJoinRig(t, 4, rPl, sPl)
	before := totalSent(rig)
	res := rig.join(t, joinSR)
	want := naiveJoinCount(rig.s, rig.r, storage.Unique1, storage.Unique1, nil, nil)
	if res.Tuples != want {
		t.Fatalf("matches = %d, want %d", res.Tuples, want)
	}
	if !Colocated(sPl, rPl, storage.Unique1) {
		t.Fatal("hash-on-join-key relations should be detected as co-located")
	}
	if Colocated(sPl, rPl, storage.Unique2) {
		t.Fatal("a join on another attribute than the hash key cannot be co-located")
	}
	coPackets := totalSent(rig) - before

	// The same join without co-location ships tuples between nodes.
	r := storage.GenerateWisconsin(storage.GenSpec{Name: "r", Cardinality: 300, Seed: 9})
	s := storage.GenerateWisconsin(storage.GenSpec{Name: "s", Cardinality: 120, Seed: 10})
	rig2 := newJoinRig(t, 4,
		core.NewRangeForRelation(r, storage.Unique2, 4),
		core.NewRangeForRelation(s, storage.Unique2, 4))
	before2 := totalSent(rig2)
	res2 := rig2.join(t, joinSR)
	if res2.Tuples != want {
		t.Fatalf("repartitioned variant disagrees: %d vs %d", res2.Tuples, want)
	}
	if shipped := totalSent(rig2) - before2; shipped <= coPackets {
		t.Fatalf("repartitioned join sent %d packets, co-located %d", shipped, coPackets)
	}
}

func totalSent(r *joinRig) int64 {
	var t int64
	for i := 0; i < 4; i++ {
		t += r.net.Sent(i)
	}
	return t
}

func TestJoinUnknownRelationPanics(t *testing.T) {
	rig := newJoinRig(t, 2,
		core.NewHash(storage.Unique1, 2), core.NewHash(storage.Unique1, 2))
	rig.eng.Spawn("probe", func(p *sim.Proc) {
		rig.host.Submit(p, plan.NewJoin(storage.Unique1, plan.NewScan("nope"), plan.NewScan("r")))
	})
	if err := rig.eng.RunUntil(sim.Time(10 * sim.Second)); err == nil {
		t.Fatal("unknown relation should surface as an error")
	}
}

func TestSelectsAndJoinsInterleave(t *testing.T) {
	rig := newJoinRig(t, 4,
		core.NewHash(storage.Unique1, 4), core.NewHash(storage.Unique1, 4))
	want := naiveJoinCount(rig.s, rig.r, storage.Unique1, storage.Unique1, nil, nil)
	done := 0
	rig.eng.Spawn("joiner", func(p *sim.Proc) {
		res := rig.host.Submit(p, joinSR)
		if res.Tuples != want {
			t.Errorf("join matches = %d, want %d", res.Tuples, want)
		}
		done++
	})
	rig.eng.Spawn("selector", func(p *sim.Proc) {
		res := rig.host.Submit(p, selectOn("r", core.Predicate{Attr: storage.Unique2, Lo: 100, Hi: 109}))
		if res.Tuples != 10 {
			t.Errorf("select got %d tuples", res.Tuples)
		}
		done++
	})
	if err := rig.eng.RunUntil(sim.Time(10 * 60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if done != 2 {
		t.Fatalf("only %d of 2 queries completed", done)
	}
}

func TestAggregates(t *testing.T) {
	rig := newJoinRig(t, 4,
		core.NewRangeForRelation(
			storage.GenerateWisconsin(storage.GenSpec{Name: "r", Cardinality: 300, Seed: 9}),
			storage.Unique1, 4),
		core.NewHash(storage.Unique1, 4))
	pred := core.Predicate{Attr: storage.Unique2, Lo: 50, Hi: 149}
	run := func(fn plan.AggFn, attr int) QueryResult {
		var res QueryResult
		rig.eng.Resume() // continue after the previous query's Stop
		rig.eng.Spawn("agg", func(p *sim.Proc) {
			res = rig.host.Submit(p, plan.NewAggregate(fn, attr,
				plan.NewIndexScan("r", pred, plan.AccessClustered)))
			rig.eng.Stop()
		})
		if err := rig.eng.RunUntil(sim.Time(10 * 60 * sim.Second)); err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Ground truth over the 100 tuples with unique2 in [50,149].
	var wantSum, wantMin, wantMax int64
	first := true
	for _, tup := range rig.r.Tuples {
		v2 := tup.Attrs[storage.Unique2]
		if v2 < 50 || v2 > 149 {
			continue
		}
		v := tup.Attrs[storage.Unique1]
		wantSum += v
		if first || v < wantMin {
			wantMin = v
		}
		if first || v > wantMax {
			wantMax = v
		}
		first = false
	}
	if got := run(plan.AggCount, storage.Unique1); got.Value != 100 || got.Tuples != 100 {
		t.Fatalf("count = %d (%d tuples)", got.Value, got.Tuples)
	}
	if got := run(plan.AggSum, storage.Unique1); got.Value != wantSum {
		t.Fatalf("sum = %d, want %d", got.Value, wantSum)
	}
	if got := run(plan.AggMin, storage.Unique1); got.Value != wantMin {
		t.Fatalf("min = %d, want %d", got.Value, wantMin)
	}
	if got := run(plan.AggMax, storage.Unique1); got.Value != wantMax {
		t.Fatalf("max = %d, want %d", got.Value, wantMax)
	}
}

func TestAggregateEmptyRange(t *testing.T) {
	rig := newJoinRig(t, 2,
		core.NewHash(storage.Unique1, 2), core.NewHash(storage.Unique1, 2))
	var res QueryResult
	rig.eng.Spawn("agg", func(p *sim.Proc) {
		res = rig.host.Submit(p, plan.NewAggregate(plan.AggMax, storage.Unique1,
			plan.NewIndexScan("r", core.Predicate{Attr: storage.Unique2, Lo: 90000, Hi: 90010}, plan.AccessClustered)))
		rig.eng.Stop()
	})
	if err := rig.eng.RunUntil(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if res.Tuples != 0 || res.Value != 0 {
		t.Fatalf("empty aggregate = %d over %d tuples", res.Value, res.Tuples)
	}
}
