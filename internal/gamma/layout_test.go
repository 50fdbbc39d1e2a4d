package gamma

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rebalance"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// slotPages is where one slot's storage sits on its disk: the first data
// page (-1 for an empty fragment), the root page of every index and then
// of every auxiliary tree, and their footprints in the same order after
// the fragment's own.
type slotPages struct {
	DataBase   int
	Roots      []int
	Footprints []int
}

func pagesOf(cfg Config, frag *storage.Fragment, aux []*storage.AuxFragment) slotPages {
	sp := slotPages{DataBase: -1, Footprints: []int{frag.FootprintPages()}}
	if frag.NumTuples() > 0 {
		sp.DataBase = frag.DataPageOfSlot(0)
	}
	for _, attr := range append([]int{cfg.ClusteredAttr}, cfg.NonClusteredAttrs...) {
		sp.Roots = append(sp.Roots, frag.Index(attr).Tree.RootPage())
	}
	for _, a := range aux {
		sp.Roots = append(sp.Roots, a.Tree.RootPage())
		sp.Footprints = append(sp.Footprints, a.FootprintPages())
	}
	return sp
}

// auxAttrs lists a holding's auxiliary-tree attributes in ascending order.
func auxAttrs(h exec.Holding) []int {
	var attrs []int
	for attr := range h.Aux {
		attrs = append(attrs, attr)
	}
	sort.Ints(attrs)
	return attrs
}

// auxInAttrOrder lists a holding's auxiliary trees in ascending attribute
// order, the order buildSlot lays them out in.
func auxInAttrOrder(h exec.Holding) []*storage.AuxFragment {
	var aux []*storage.AuxFragment
	for _, attr := range auxAttrs(h) {
		aux = append(aux, h.Aux[attr])
	}
	return aux
}

// layoutKey names one slot's primary storage or its chain replica.
type layoutKey struct {
	relation string
	slot     int
	backup   bool
}

// referenceLayout lays the relations out the way every machine reset used
// to: fresh allocators on all pPhys disks, then relation by relation each
// slot's fragment, indexes and auxiliary trees on its own node, followed by
// the chain replicas on their successors. It returns every slot's pages
// and each disk's allocator high-water mark.
func referenceLayout(cfg Config, pPhys int, rels []*storage.Relation, pls []core.Placement) (map[layoutKey]slotPages, []int) {
	allocs := make([]*storage.Allocator, pPhys)
	for i := range allocs {
		allocs[i] = storage.NewAllocator(cfg.HW.PagesPerDisk())
	}
	out := make(map[layoutKey]slotPages)
	for r, rel := range rels {
		pl := pls[r]
		p := pl.Processors()
		fragTuples := make(map[int][]storage.Tuple, p)
		for _, tup := range rel.Tuples {
			h := pl.HomeOf(tup)
			fragTuples[h] = append(fragTuples[h], tup)
		}
		var attrs []int
		var auxByAttr map[int]map[int][]storage.AuxEntry
		if berd, ok := pl.(*core.BERDPlacement); ok {
			auxByAttr = berd.AuxAssignments(rel)
			for attr := range auxByAttr {
				attrs = append(attrs, attr)
			}
			sort.Ints(attrs)
		}
		build := func(slot int, alloc *storage.Allocator) slotPages {
			frag := storage.BuildFragment(slot, fragTuples[slot], cfg.ClusteredAttr, cfg.Layout, alloc)
			frag.AddIndex(cfg.ClusteredAttr, alloc)
			for _, a := range cfg.NonClusteredAttrs {
				frag.AddIndex(a, alloc)
			}
			var aux []*storage.AuxFragment
			for _, attr := range attrs {
				aux = append(aux, storage.BuildAux(slot, auxByAttr[attr][slot], cfg.Layout, alloc))
			}
			return pagesOf(cfg, frag, aux)
		}
		for i := 0; i < p; i++ {
			out[layoutKey{rel.Name, i, false}] = build(i, allocs[i])
		}
		if cfg.ChainedReplicas {
			for i := 0; i < p; i++ {
				if b := core.ChainBackup(i, p); b >= 0 {
					out[layoutKey{rel.Name, i, true}] = build(i, allocs[b])
				}
			}
		}
	}
	used := make([]int, pPhys)
	for i, a := range allocs {
		used[i] = a.Used()
	}
	return out, used
}

// imageLayout summarizes the machine's storage image like referenceLayout.
func imageLayout(m *Machine) map[layoutKey]slotPages {
	out := make(map[layoutKey]slotPages)
	for _, e := range m.relations {
		for i, s := range e.primary {
			out[layoutKey{e.rel.Name, i, false}] = pagesOf(m.Cfg, s.Frag, auxInAttrOrder(s))
		}
		for i, s := range e.backup {
			if s.Frag != nil {
				out[layoutKey{e.rel.Name, i, true}] = pagesOf(m.Cfg, s.Frag, auxInAttrOrder(s))
			}
		}
	}
	return out
}

func allocatorMarks(m *Machine) []int {
	used := make([]int, len(m.allocs))
	for i, a := range m.allocs {
		used[i] = a.Used()
	}
	return used
}

// heldFragments lists, node by node, the primary and backup fragment each
// node serves for every relation in the built generation (nil where it
// holds none).
func heldFragments(m *Machine) []*storage.Fragment {
	var out []*storage.Fragment
	for _, n := range m.Nodes {
		for _, e := range m.relations {
			for _, role := range []exec.Role{exec.Primary, exec.Backup} {
				var frag *storage.Fragment
				if h, err := n.Resolve(e.rel.Name, role, 0); err == nil {
					frag = h.Frag
				}
				out = append(out, frag)
			}
		}
	}
	return out
}

// The storage image built once at Build/AddRelation puts every page where
// the per-reset layout did — BERD fragments, indexes and auxiliaries, chain
// replicas, a second relation after the first, and an empty elastic
// standby — and every reset, including one after a run whose join staged
// a new generation, hands the nodes the same fragment objects and resumes
// each disk's allocator after the image.
func TestStorageImageMatchesPerResetLayout(t *testing.T) {
	cfg := smallConfig()
	cfg.ChainedReplicas = true
	cfg.Elastic = &ElasticSpec{
		Events:  []rebalance.Event{{At: 50 * sim.Millisecond, Kind: rebalance.Join}},
		Rebuild: rangeRebuild,
	}
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 3000, Seed: 11})
	other := storage.GenerateWisconsin(storage.GenSpec{Name: "other", Cardinality: 700, Seed: 12})
	pls := []core.Placement{
		core.NewBERDForRelation(rel, storage.Unique1, []int{storage.Unique2}, 8),
		core.NewBERDForRelation(other, storage.Unique2, []int{storage.Unique1}, 8),
	}
	m, err := Build(rel, pls[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddRelation(other, pls[1]); err != nil {
		t.Fatal(err)
	}
	want, wantUsed := referenceLayout(cfg, 9, []*storage.Relation{rel, other}, pls)
	if got := imageLayout(m); !reflect.DeepEqual(got, want) {
		for k, w := range want {
			if !reflect.DeepEqual(got[k], w) {
				t.Errorf("%+v: image %+v, per-reset layout %+v", k, got[k], w)
			}
		}
		t.Fatalf("storage image differs from the per-reset layout (%d vs %d slots)", len(got), len(want))
	}
	if got := allocatorMarks(m); !reflect.DeepEqual(got, wantUsed) {
		t.Fatalf("allocators after build at %v, per-reset layout %v", got, wantUsed)
	}

	node0, held := m.Nodes[0], heldFragments(m)
	for _, f := range held[:4] {
		if f == nil {
			t.Fatal("node 0 lacks a primary or backup fragment")
		}
	}
	if _, err := m.Run(workload.LowLow(rel.Cardinality()), RunSpec{MPL: 2, WarmupQueries: 5, MeasureQueries: 200}); err != nil {
		t.Fatal(err)
	}
	if got := allocatorMarks(m); reflect.DeepEqual(got, wantUsed) {
		t.Fatal("the run's join staged no pages after the image")
	}
	m.Reset()
	if m.Nodes[0] == node0 {
		t.Fatal("reset kept the previous run's nodes")
	}
	if got := heldFragments(m); !reflect.DeepEqual(got, held) {
		t.Fatal("a reset handed the nodes different fragment objects")
	}
	if got := allocatorMarks(m); !reflect.DeepEqual(got, wantUsed) {
		t.Fatalf("allocators after reset at %v, want the image's %v", got, wantUsed)
	}
}

// Auxiliary trees are laid out in ascending attribute order, so a BERD
// placement with two secondary attributes gets the same pages on every
// build.
func TestAuxTreesLaidOutInAttributeOrder(t *testing.T) {
	rel := smallRelation(t, 0)
	pl := core.NewBERDForRelation(rel, storage.Unique1, []int{storage.Unique3, storage.Unique2}, 8)
	want := []int{storage.Unique2, storage.Unique3}
	var firstRoots [][]int
	var firstUsed []int
	for build := 0; build < 20; build++ {
		d, err := distribute(rel, pl)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d.auxAttrs, want) {
			t.Fatalf("layout order of aux attributes %v, want %v", d.auxAttrs, want)
		}
		m, err := Build(rel, pl, smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		var roots [][]int
		for slot, s := range m.relations[0].primary {
			if got := auxAttrs(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("aux attributes %v, want %v", got, want)
			}
			// A slot's trees take consecutive page ranges in build order,
			// so ascending attribute order means ascending root pages.
			var r []int
			for _, a := range auxInAttrOrder(s) {
				r = append(r, a.Tree.RootPage())
			}
			if !sort.IntsAreSorted(r) {
				t.Fatalf("slot %d: aux roots %v for attributes %v, not laid out in ascending attribute order",
					slot, r, want)
			}
			roots = append(roots, r)
		}
		used := allocatorMarks(m)
		if build == 0 {
			firstRoots, firstUsed = roots, used
			continue
		}
		if !reflect.DeepEqual(roots, firstRoots) || !reflect.DeepEqual(used, firstUsed) {
			t.Fatalf("build %d: aux roots %v, allocators %v; first build %v, %v",
				build, roots, used, firstRoots, firstUsed)
		}
	}
}
