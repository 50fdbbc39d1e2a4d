package exec

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/storage"
)

// migrateRig is a three-node machine whose two-slot relation starts on
// nodes {0, 1} (identity topology) with a staged next generation placing
// slot 0 on node 1 and slot 1 on node 2 — the smallest layout where a
// cutover makes every slot's physical home differ from its slot number.
type migrateRig struct {
	eng   *sim.Engine
	nodes []*Node
	host  *Host
	rel   *storage.Relation
	heat  *obs.HeatMap
}

func newMigrateRig(t *testing.T) *migrateRig {
	t.Helper()
	eng := sim.New()
	// Three nodes: two slots plus the node that joins in generation 1.
	const nodes = 3
	params := hw.DefaultParams()
	costs := DefaultCosts()
	streams := rng.NewFactory(5)

	cpus := make([]*hw.CPU, nodes+1)
	for i := 0; i < nodes; i++ {
		cpus[i] = hw.NewCPU(eng, "cpu", params)
	}
	net := hw.NewNetwork(eng, params, cpus)

	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	placement := core.NewRangeForRelation(rel, storage.Unique1, 2)
	layout := storage.Layout{TuplesPerPage: 8, IndexFanout: 8, IndexLeafCap: 8}
	r := &migrateRig{eng: eng, rel: rel, heat: obs.NewHeatMap()}

	bySlot := make([][]int32, 2)
	for row, tup := range rel.Tuples {
		h := placement.HomeOf(&tup)
		bySlot[h] = append(bySlot[h], int32(row))
	}
	allocs := make([]*storage.Allocator, nodes)
	for i := 0; i < nodes; i++ {
		disk := hw.NewDisk(eng, "disk", params, cpus[i], streams.Stream("lat"))
		pool := buffer.NewPool(eng, 16, disk)
		n := NewNode(eng, i, params, costs, net, cpus[i], disk, pool)
		allocs[i] = storage.NewAllocator(10000)
		r.nodes = append(r.nodes, n)
	}
	build := func(slot, phys int) *storage.Fragment {
		frag := indexedFragment(slot, rel.Tuples, bySlot[slot], layout, allocs[phys])
		return frag
	}
	// attach gives node phys slot's fragment in generation gen, charging
	// the node's primary heat accumulator.
	attach := func(gen, slot, phys int) {
		r.nodes[phys].Attach(gen, rel.Name, Primary, Holding{
			Frag: build(slot, phys),
			Heat: r.heat.Frag(rel.Name, phys, obs.FragPrimary),
		})
	}
	// Generation 0: slots 0 and 1 live on their own-numbered nodes.
	for slot := 0; slot < 2; slot++ {
		attach(0, slot, slot)
	}
	// Staged generation 1: slot 0 -> node 1, slot 1 -> node 2.
	attach(1, 0, 1)
	attach(1, 1, 2)
	for _, n := range r.nodes {
		n.Start()
	}
	r.host = NewHost(eng, nodes, params, net, costs)
	r.host.AddRelation(rel.Name, placement)
	r.host.Start()
	return r
}

// cutover installs generation 1 on every node and repoints the host.
func (r *migrateRig) cutover() {
	for _, n := range r.nodes {
		n.CutoverPlacement(1)
	}
	r.host.SetTopology([]int{1, 2}, 1)
}

func (r *migrateRig) execute(t *testing.T, pred core.Predicate) QueryResult {
	t.Helper()
	var res QueryResult
	simtest.Spawn(r.eng, "probe", func(p *simtest.Proc) {
		res = submit(p, r.host, selectOn(r.rel.Name, pred))
		r.eng.Stop()
	})
	if err := r.eng.RunUntil(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	return res
}

// servedNodeOfSlot maps each ServedBy entry's placement slot to the
// physical node that answered it.
func servedNodeOfSlot(res QueryResult) map[int]int {
	m := make(map[int]int)
	for _, op := range res.ServedBy {
		m[op.Fragment] = op.Node
	}
	return m
}

// After a cutover to a non-identity topology, ServedBy must attribute
// each operator to the placement slot (what the plan explains) AND the
// physical node that actually served it (what the heat map charges) —
// and the two views must agree: heat lands on the new physical homes.
func TestServedByAndHeatAgreeAfterCutover(t *testing.T) {
	r := newMigrateRig(t)
	r.eng.Schedule(0, func() { r.cutover() })
	res := r.execute(t, bothNodes)
	if res.Tuples != 20 {
		t.Fatalf("got %d tuples, want 20", res.Tuples)
	}
	served := servedNodeOfSlot(res)
	if served[0] != 1 || served[1] != 2 {
		t.Fatalf("ServedBy slot->node = %v, want map[0:1 1:2] after cutover", served)
	}
	// Heat attribution agrees with ServedBy: the migrated-to nodes are
	// charged, the vacated node is not.
	if pages := r.heat.Frag(r.rel.Name, 0, obs.FragPrimary).Pages(); pages != 0 {
		t.Fatalf("node 0 charged %d pages after migrating its slot away", pages)
	}
	for _, phys := range []int{1, 2} {
		if pages := r.heat.Frag(r.rel.Name, phys, obs.FragPrimary).Pages(); pages == 0 {
			t.Fatalf("node %d served a slot but its heat accumulator is empty", phys)
		}
	}
}

// A query submitted before the cutover completes against the old
// generation (dual-read): its ServedBy still names the old physical
// homes, because that is where its operators ran.
func TestDualReadServesInFlightQueryAcrossCutover(t *testing.T) {
	r := newMigrateRig(t)
	// The cutover lands while the query's operators are on the wire.
	r.eng.Schedule(sim.Duration(100*sim.Microsecond), func() { r.cutover() })
	res := r.execute(t, bothNodes)
	if res.Tuples != 20 {
		t.Fatalf("got %d tuples, want 20 from the pre-cutover generation", res.Tuples)
	}
	served := servedNodeOfSlot(res)
	if served[0] != 0 || served[1] != 1 {
		t.Fatalf("ServedBy slot->node = %v, want map[0:0 1:1] for a pre-cutover query", served)
	}
}

// A query two generations behind cannot be served: the node rejects it
// with a typed error instead of answering from the wrong layout.
func TestDualReadRejectsTwoGenerationsBack(t *testing.T) {
	r := newMigrateRig(t)
	r.eng.Schedule(sim.Duration(100*sim.Microsecond), func() {
		r.cutover()
		// Immediately advance again: gen 2 keeps the same layout (slots
		// restaged in place) but retires gen 0 from the dual-read window.
		for _, n := range r.nodes {
			n.CutoverPlacement(2)
		}
		r.host.SetTopology([]int{1, 2}, 2)
	})
	res := r.execute(t, bothNodes)
	if res.Err == nil {
		t.Fatalf("epoch-0 query against gen-2 nodes: res = %+v, want an error", res)
	}
}

// A node resolves its serving and previous generations only, and attaches
// only to the serving generation or the next one, once per relation and
// role.
func TestAttachAndResolveGenerations(t *testing.T) {
	r := newMigrateRig(t)
	n, rel := r.nodes[1], r.rel.Name
	gen0, err := n.Resolve(rel, Primary, 0)
	if err != nil || gen0.Frag.Node != 1 || gen0.Heat == nil {
		t.Fatalf("gen 0 primary = %+v, %v; want slot 1's fragment with heat", gen0, err)
	}
	if _, err := n.Resolve(rel, Backup, 0); err == nil {
		t.Fatal("resolved a backup the node never held")
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("attaching generation 2 at generation 0", func() {
		n.Attach(2, rel, Primary, Holding{Frag: gen0.Frag})
	})
	mustPanic("attaching a second staged primary", func() {
		n.Attach(1, rel, Primary, Holding{Frag: gen0.Frag})
	})

	n.CutoverPlacement(1)
	gen1, err := n.Resolve(rel, Primary, 1)
	if err != nil || gen1.Frag.Node != 0 {
		t.Fatalf("gen 1 primary = %+v, %v; want slot 0's staged fragment", gen1, err)
	}
	if prev, err := n.Resolve(rel, Primary, 0); err != nil || prev != gen0 {
		t.Fatalf("dual-read of gen 0 = %+v, %v; want the gen 0 holding", prev, err)
	}

	n.CutoverPlacement(2)
	if _, err := n.Resolve(rel, Primary, 0); err == nil {
		t.Fatal("resolved a generation two cutovers back")
	}
	if _, err := n.Resolve(rel, Primary, 2); err == nil {
		t.Fatal("resolved a holding nothing staged")
	}
	if prev, err := n.Resolve(rel, Primary, 1); err != nil || prev != gen1 {
		t.Fatalf("dual-read of gen 1 = %+v, %v; want the gen 1 holding", prev, err)
	}
}
