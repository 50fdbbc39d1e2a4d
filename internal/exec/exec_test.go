package exec

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/storage"
)

// rig builds a minimal two-node machine (nodes 0,1 + host endpoint 2) with
// a tiny fragment on each node, suitable for driving the exec layer
// directly.
type rig struct {
	eng   *sim.Engine
	net   *hw.Network
	nodes []*Node
	host  *Host
	rel   *storage.Relation
}

// rigNodes is the processor count of newRig's and newDegradedRig's
// machines; the host is node rigNodes.
const rigNodes = 2

func newRig(t testing.TB, placement core.Placement) *rig {
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
	r := &rig{eng: eng, net: net, rel: rel}
	layout := storage.Layout{TuplesPerPage: 8, IndexFanout: 8, IndexLeafCap: 8}
	for i := 0; i < rigNodes; i++ {
		disk := hw.NewDisk(eng, "disk", params, cpus[i], streams.Stream("lat"))
		pool := buffer.NewPool(eng, 16, disk)
		n := NewNode(eng, i, params, costs, net, cpus[i], disk, pool)
		var rows []int32
		for row, tup := range rel.Tuples {
			if placement.HomeOf(&tup) == i {
				rows = append(rows, int32(row))
			}
		}
		alloc := storage.NewAllocator(10000)
		frag := indexedFragment(i, rel.Tuples, rows, layout, alloc)
		n.Attach(0, rel.Name, Primary, Holding{Frag: frag})
		n.Start()
		r.nodes = append(r.nodes, n)
	}
	r.host = NewHost(eng, rigNodes, params, net, costs)
	r.host.AddRelation(rel.Name, placement)
	r.host.Start()
	return r
}

// indexedFragment builds slot's fragment over src[r], r in rows, which
// must be in unique2 order, with a TID index of its own, the clustered
// index on unique2 and a non-clustered index on unique1.
func indexedFragment(slot int, src []storage.Tuple, rows []int32, layout storage.Layout, alloc *storage.Allocator) *storage.Fragment {
	frag := storage.BuildFragment(slot, src, rows, make([]int32, len(src)), storage.Unique2, layout, alloc)
	frag.AddIndex(storage.Unique2, nil, alloc)
	byKey := slices.Clone(rows)
	slices.SortStableFunc(byKey, func(a, b int32) int {
		return cmp.Compare(src[a].Attrs[storage.Unique1], src[b].Attrs[storage.Unique1])
	})
	frag.AddIndex(storage.Unique1, byKey, alloc)
	return frag
}

func chooser(pred core.Predicate) plan.Access {
	if pred.Attr == storage.Unique1 {
		return plan.AccessNonClustered
	}
	return plan.AccessClustered
}

// selectOn is the selection plan a terminal submits: pred against the named
// relation with the test workload's access method.
func selectOn(relation string, pred core.Predicate) *plan.Node {
	return plan.Select(relation, pred, chooser(pred))
}

func (r *rig) execute(t *testing.T, pred core.Predicate) QueryResult {
	t.Helper()
	var res QueryResult
	simtest.Spawn(r.eng, "probe", func(p *simtest.Proc) {
		res = submit(p, r.host, selectOn(r.rel.Name, pred))
		r.eng.Stop()
	})
	if err := r.eng.RunUntil(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("query never completed")
	}
	return res
}

func TestHostExecutesAcrossNodes(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	r := newRig(t, core.NewRangeForRelation(rel, storage.Unique1, 2))
	// Range on B reaches both nodes.
	res := r.execute(t, core.Predicate{Attr: storage.Unique2, Lo: 50, Hi: 69})
	if res.Tuples != 20 {
		t.Fatalf("got %d tuples", res.Tuples)
	}
	if res.ProcessorsUsed != 2 {
		t.Fatalf("used %d processors", res.ProcessorsUsed)
	}
	if r.nodes[0].OpsExecuted+r.nodes[1].OpsExecuted != 2 {
		t.Fatal("both nodes should run one operator")
	}
	if r.nodes[0].TuplesShipped+r.nodes[1].TuplesShipped != 20 {
		t.Fatal("shipped-tuple accounting wrong")
	}
	if r.host.QueriesRun != 1 {
		t.Fatalf("host ran %d queries", r.host.QueriesRun)
	}
}

func TestNonClusteredAccessFindsSingleTuple(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	r := newRig(t, core.NewRangeForRelation(rel, storage.Unique1, 2))
	res := r.execute(t, core.Predicate{Attr: storage.Unique1, Lo: 100, Hi: 100})
	if res.Tuples != 1 {
		t.Fatalf("got %d tuples", res.Tuples)
	}
	if res.ProcessorsUsed != 1 {
		t.Fatalf("used %d processors", res.ProcessorsUsed)
	}
	if res.ResponseMS() <= 0 {
		t.Fatal("no simulated time elapsed")
	}
}

func TestEmptyResultStillCompletes(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	r := newRig(t, core.NewRangeForRelation(rel, storage.Unique1, 2))
	res := r.execute(t, core.Predicate{Attr: storage.Unique2, Lo: 5000, Hi: 5100})
	if res.Tuples != 0 {
		t.Fatalf("got %d tuples from an empty range", res.Tuples)
	}
}

func TestQueriesShareNodesConcurrently(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	r := newRig(t, core.NewRangeForRelation(rel, storage.Unique1, 2))
	done := 0
	for q := 0; q < 4; q++ {
		lo := int64(q * 30)
		simtest.Spawn(r.eng, "probe", func(p *simtest.Proc) {
			res := submit(p, r.host, selectOn(rel.Name, core.Predicate{Attr: storage.Unique2, Lo: lo, Hi: lo + 9}))
			if res.Tuples != 10 {
				t.Errorf("query got %d tuples", res.Tuples)
			}
			done++
		})
	}
	if err := r.eng.RunUntil(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if done != 4 {
		t.Fatalf("only %d of 4 concurrent queries completed", done)
	}
}

func TestAccessKindString(t *testing.T) {
	if plan.AccessClustered.String() != "clustered" ||
		plan.AccessNonClustered.String() != "non-clustered" ||
		plan.AccessTIDFetch.String() != "tid-fetch" {
		t.Fatal("plan.Access names wrong")
	}
	if plan.Access(99).String() != "unknown" {
		t.Fatal("unknown access kind should say so")
	}
}

func TestDefaultCosts(t *testing.T) {
	c := DefaultCosts()
	if c.IndexPageInstr <= 0 || c.PlanInstr <= 0 || c.CSms < 0 {
		t.Fatalf("bad defaults: %+v", c)
	}
	// Index-page search must be far cheaper than full page processing.
	if c.IndexPageInstr >= hw.DefaultParams().ReadPageInstr {
		t.Fatal("index page search should cost less than data page processing")
	}
}

func TestNodePanicsOnUnknownMessage(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	r := newRig(t, core.NewRangeForRelation(rel, storage.Unique1, 2))
	simtest.Spawn(r.eng, "rogue", func(p *simtest.Proc) {
		netSend(p, r.net, nil, hw.Message{From: 2, To: 0, Bytes: 100, Payload: "garbage"})
	})
	if err := r.eng.RunUntil(sim.Time(10 * sim.Second)); err == nil {
		t.Fatal("unknown message type should surface as an error")
	}
}

func TestHostPanicsOnUnknownQueryResult(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	r := newRig(t, core.NewRangeForRelation(rel, storage.Unique1, 2))
	simtest.Spawn(r.eng, "rogue", func(p *simtest.Proc) {
		netSend(p, r.net, nil, hw.Message{From: 0, To: 2, Bytes: 100,
			Payload: opResult{QueryID: 777, Node: 0}})
	})
	if err := r.eng.RunUntil(sim.Time(10 * sim.Second)); err == nil {
		t.Fatal("orphan result should surface as an error")
	}
}

func TestResultsShipInPackets(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	r := newRig(t, core.NewRangeForRelation(rel, storage.Unique1, 2))
	// 100 tuples * 208B > 8KB: the result must split into multiple packets.
	before := r.net.Sent(0) + r.net.Sent(1)
	res := r.execute(t, core.Predicate{Attr: storage.Unique2, Lo: 0, Hi: 99})
	if res.Tuples != 100 {
		t.Fatalf("got %d tuples", res.Tuples)
	}
	packets := r.net.Sent(0) + r.net.Sent(1) - before
	if packets < 3 {
		t.Fatalf("expected multi-packet results, saw %d packets", packets)
	}
}
