package gamma

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/rebalance"
	"repro/internal/serve"
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

func pagesOf(frag *storage.Fragment, aux []*storage.AuxFragment) slotPages {
	sp := slotPages{DataBase: -1, Footprints: []int{frag.FootprintPages()}}
	if frag.NumTuples() > 0 {
		sp.DataBase = frag.DataPageOfSlot(0)
	}
	for _, attr := range []int{clusteredAttr, nonClusteredAttr} {
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
// order, the order layOut lays them out in.
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

// referenceHolding is one slot's storage as referenceHoldings builds it:
// the fragment and its auxiliary trees in ascending attribute order.
type referenceHolding struct {
	frag *storage.Fragment
	aux  []*storage.AuxFragment
}

// referenceHoldings lays the relations out the way every machine reset
// used to, one BuildFragment call per fragment: one allocator per disk
// starting at marks[disk], then relation by relation each slot's fragment,
// indexes and auxiliary trees on node slotNode[slot], followed by the
// chain replicas on their successors' nodes. It returns every slot's
// storage and each disk's allocator high-water mark.
func referenceHoldings(cfg Config, marks, slotNode []int, rels []*storage.Relation, pls []core.Placement) (map[layoutKey]referenceHolding, []int) {
	allocs := make([]*storage.Allocator, len(marks))
	for i, mark := range marks {
		allocs[i] = storage.NewAllocator(cfg.HW.PagesPerDisk())
		allocs[i].AllocRun(mark)
	}
	out := make(map[layoutKey]referenceHolding)
	for r, rel := range rels {
		pl := pls[r]
		p := pl.Processors()
		fragRows := make(map[int][]int32, p)
		for row, tup := range rel.Tuples {
			h := pl.HomeOf(&tup)
			fragRows[h] = append(fragRows[h], int32(row))
		}
		var attrs []int
		auxByAttr := make(map[int]map[int][]storage.AuxEntry)
		if berd, ok := pl.(*core.BERDPlacement); ok {
			attrs = berd.SecondaryAttrs()
			for _, attr := range attrs {
				perProc := make(map[int][]storage.AuxEntry)
				for _, tup := range rel.Tuples {
					v := tup.Attrs[attr]
					q := berd.AuxHomeOf(attr, v)
					perProc[q] = append(perProc[q], storage.AuxEntry{Value: v, TID: tup.TID, Proc: pl.HomeOf(&tup)})
				}
				auxByAttr[attr] = perProc
			}
		}
		byAttr := func(attr int) func(a, b int32) int {
			return func(a, b int32) int { return cmp.Compare(rel.Tuples[a].Attrs[attr], rel.Tuples[b].Attrs[attr]) }
		}
		build := func(slot int, alloc *storage.Allocator) referenceHolding {
			// Each fragment gets its own row list and TID index, and sorts
			// its own input stably: the rows by unique2, the non-clustered
			// index's rows, in slot order, by unique1, and the auxiliary
			// entries, in relation order, by value.
			rows := slices.Clone(fragRows[slot])
			slices.SortStableFunc(rows, byAttr(storage.Unique2))
			frag := storage.BuildFragment(slot, rel.Tuples, rows, make([]int32, len(rel.Tuples)), storage.Unique2, cfg.Layout, alloc)
			frag.AddIndex(storage.Unique2, nil, alloc)
			byKey := slices.Clone(rows)
			slices.SortStableFunc(byKey, byAttr(storage.Unique1))
			frag.AddIndex(storage.Unique1, byKey, alloc)
			var aux []*storage.AuxFragment
			for _, attr := range attrs {
				entries := slices.Clone(auxByAttr[attr][slot])
				slices.SortStableFunc(entries, func(a, b storage.AuxEntry) int { return cmp.Compare(a.Value, b.Value) })
				aux = append(aux, storage.BuildAux(slot, entries, cfg.Layout, alloc))
			}
			return referenceHolding{frag, aux}
		}
		for i := 0; i < p; i++ {
			out[layoutKey{rel.Name, i, false}] = build(i, allocs[slotNode[i]])
		}
		if cfg.ChainedReplicas {
			for i := 0; i < p; i++ {
				if b := core.ChainBackup(i, p); b >= 0 {
					out[layoutKey{rel.Name, i, true}] = build(i, allocs[slotNode[b]])
				}
			}
		}
	}
	used := make([]int, len(allocs))
	for i, a := range allocs {
		used[i] = a.Used()
	}
	return out, used
}

// referenceLayout summarizes referenceHoldings' layout: every slot's
// pages and each disk's allocator high-water mark.
func referenceLayout(cfg Config, marks, slotNode []int, rels []*storage.Relation, pls []core.Placement) (map[layoutKey]slotPages, []int) {
	hs, used := referenceHoldings(cfg, marks, slotNode, rels, pls)
	out := make(map[layoutKey]slotPages, len(hs))
	for k, h := range hs {
		out[k] = pagesOf(h.frag, h.aux)
	}
	return out, used
}

// imageLayout summarizes the machine's storage image like referenceLayout.
func imageLayout(m *Machine) map[layoutKey]slotPages {
	out := make(map[layoutKey]slotPages)
	for _, r := range m.img.rels {
		for i, s := range r.primary {
			out[layoutKey{r.rel.Name, i, false}] = pagesOf(s.Frag, auxInAttrOrder(s))
		}
		for i, s := range r.backup {
			if s.Frag != nil {
				out[layoutKey{r.rel.Name, i, true}] = pagesOf(s.Frag, auxInAttrOrder(s))
			}
		}
	}
	return out
}

// generationLayout summarizes, like referenceLayout, the holdings the
// nodes serve for a relation at placement generation gen, slot s of the
// generation's placement living on node slotNode[s].
func generationLayout(t *testing.T, m *Machine, relation string, gen int, slotNode []int) map[layoutKey]slotPages {
	t.Helper()
	out := make(map[layoutKey]slotPages)
	p := len(slotNode)
	for slot, node := range slotNode {
		h, err := m.Nodes[node].Resolve(relation, exec.Primary, gen)
		if err != nil {
			t.Fatal(err)
		}
		out[layoutKey{relation, slot, false}] = pagesOf(h.Frag, auxInAttrOrder(*h))
		if b := core.ChainBackup(slot, p); b >= 0 {
			h, err := m.Nodes[slotNode[b]].Resolve(relation, exec.Backup, gen)
			if err != nil {
				t.Fatal(err)
			}
			out[layoutKey{relation, slot, true}] = pagesOf(h.Frag, auxInAttrOrder(*h))
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
		for _, r := range m.img.rels {
			for _, role := range []exec.Role{exec.Primary, exec.Backup} {
				var frag *storage.Fragment
				if h, err := n.Resolve(r.rel.Name, role, 0); err == nil {
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
	cfg := DefaultConfig()
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
	want, wantUsed := referenceLayout(cfg, make([]int, 9), identitySlots(8), []*storage.Relation{rel, other}, pls)
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
	// layOut builds the trees in SecondaryAttrs order.
	if got := pl.SecondaryAttrs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("layout order of aux attributes %v, want %v", got, want)
	}
	for build := 0; build < 20; build++ {
		m, err := Build(rel, pl, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var roots [][]int
		for slot, s := range m.img.rels[0].primary {
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

// An elastic join stages the next generation on the run's allocators,
// after the image's pages: on a four-node BERD machine with chained
// replicas that joins its standby, every member's generation-1 primary and
// backup sit where a layout of the five-node placement over the members,
// starting at the image's marks, puts them, and every disk's allocator
// ends at that layout's mark.
func TestStagedGenerationMatchesReference(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 2000, Seed: 11})
	berd := func(rel *storage.Relation, procs int) core.Placement {
		return core.NewBERDForRelation(rel, storage.Unique1, []int{storage.Unique2}, procs)
	}
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.ChainedReplicas = true
	cfg.Elastic = &ElasticSpec{
		Events: []rebalance.Event{{At: 200 * sim.Millisecond, Kind: rebalance.Join}},
		Rebuild: func(rel *storage.Relation, procs int) (core.Placement, error) {
			return berd(rel, procs), nil
		},
	}
	m, err := Build(rel, berd(rel, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	res, err := m.RunServe(workload.LowLow(rel.Cardinality()), ServeSpec{
		Arrival:        serve.ArrivalSpec{Kind: serve.Poisson, RateQPS: 100},
		WarmupQueries:  5,
		MeasureQueries: 300,
		MaxSimTime:     30 * sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep := res.Rebalance; rep == nil || len(rep.Tasks) != 1 || rep.Tasks[0].Err != "" {
		t.Fatalf("rebalance report = %+v, want one completed join", res.Rebalance)
	}
	members := m.Rebalancer.Members()
	if len(members) != 5 {
		t.Fatalf("members after the join = %v", members)
	}

	rels := []*storage.Relation{rel}
	_, imageMarks := referenceLayout(cfg, make([]int, 5), identitySlots(4), rels, []core.Placement{berd(rel, 4)})
	want, wantUsed := referenceLayout(cfg, imageMarks, members, rels, []core.Placement{berd(rel, 5)})
	if got := generationLayout(t, m, rel.Name, 1, members); !reflect.DeepEqual(got, want) {
		for k, w := range want {
			if !reflect.DeepEqual(got[k], w) {
				t.Errorf("%+v: staged %+v, reference %+v", k, got[k], w)
			}
		}
		t.Fatalf("staged generation differs from the reference layout (%d vs %d slots)", len(got), len(want))
	}
	if got := allocatorMarks(m); !reflect.DeepEqual(got, wantUsed) {
		t.Fatalf("allocators after staging at %v, reference %v", got, wantUsed)
	}
	// The staged fragments and auxiliary trees also answer every access
	// as the reference's do.
	ref, _ := referenceHoldings(cfg, imageMarks, members, rels, []core.Placement{berd(rel, 5)})
	card := int64(rel.Cardinality())
	for slot, node := range members {
		for _, role := range []exec.Role{exec.Primary, exec.Backup} {
			holder := node
			if role == exec.Backup {
				holder = members[core.ChainBackup(slot, len(members))]
			}
			h, err := m.Nodes[holder].Resolve(rel.Name, role, 1)
			if err != nil {
				t.Fatal(err)
			}
			w := ref[layoutKey{rel.Name, slot, role == exec.Backup}]
			if !reflect.DeepEqual(accessTraces(t, h.Frag, card), accessTraces(t, w.frag, card)) {
				t.Fatalf("slot %d %v: staged access methods differ from the reference", slot, role)
			}
			if !reflect.DeepEqual(auxLookups(auxInAttrOrder(*h), card), auxLookups(w.aux, card)) {
				t.Fatalf("slot %d %v: staged aux lookups differ from the reference", slot, role)
			}
		}
	}
}

// accessTrace is what an access method hands the executor: the index
// pages, the data page requests and the qualifying slots, each in access
// order, and the tuples in those slots.
type accessTrace struct {
	IndexPages, DataPages, Slots []int
	Tuples                       []storage.Tuple
}

func traceOf(acc storage.Access) accessTrace {
	tr := accessTrace{IndexPages: acc.IndexPages}
	for i := 0; i < acc.NumDataPages(); i++ {
		tr.DataPages = append(tr.DataPages, acc.DataPage(i))
	}
	for i := 0; i < acc.N; i++ {
		slot := acc.First + i
		if acc.Slots != nil {
			slot = acc.Slots[i]
		}
		tr.Slots = append(tr.Slots, slot)
		tr.Tuples = append(tr.Tuples, *acc.Tuple(i))
	}
	return tr
}

// probeRanges are the key ranges the access comparisons probe over a
// relation of card tuples: its first ten keys, a tenth from a third of
// the way, a range across its end, and everything.
func probeRanges(card int64) [][2]int64 {
	return [][2]int64{{0, 9}, {card / 3, card/3 + card/10}, {card - 5, card + 5}, {math.MinInt64, math.MaxInt64}}
}

// accessTraces runs every access method of frag on a few predicates over
// a relation of card tuples: a full scan (the slot's tuple sequence), the
// clustered and non-clustered searches, a filtering scan and a TID fetch
// of every tuple in reverse slot order, the fetch's TIDs taken from the
// full scan.
func accessTraces(t *testing.T, frag *storage.Fragment, card int64) []accessTrace {
	t.Helper()
	var out []accessTrace
	add := func(acc storage.Access, err error) accessTrace {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, traceOf(acc))
		return out[len(out)-1]
	}
	all := add(frag.Scan(storage.Unique2, math.MinInt64, math.MaxInt64, nil), nil)
	for _, r := range probeRanges(card) {
		add(frag.SearchClustered(r[0], r[1], nil))
		add(frag.SearchNonClustered(storage.Unique1, r[0], r[1], nil))
		add(frag.Scan(storage.Unique1, r[0], r[1], nil), nil)
	}
	add(frag.Scan(storage.Ten, 3, 3, nil), nil)
	tids := make([]int64, 0, len(all.Tuples))
	for i := len(all.Tuples) - 1; i >= 0; i-- {
		tids = append(tids, all.Tuples[i].TID)
	}
	add(frag.FetchTIDs(tids, nil))
	return out
}

// auxLookup is one auxiliary Lookup's result.
type auxLookup struct {
	ByProc  [][]int64
	Entries int
	Pages   []int
}

func auxLookups(aux []*storage.AuxFragment, card int64) []auxLookup {
	var out []auxLookup
	for _, a := range aux {
		for _, r := range probeRanges(card) {
			byProc, n, pages := a.Lookup(r[0], r[1], nil)
			out = append(out, auxLookup{byProc, n, pages})
		}
	}
	return out
}

// Every access method of the image's storage answers as the reference
// layout's, one BuildFragment per fragment, does: for range, BERD and
// MAGIC with chained replicas, every primary and replica fragment holds
// the same tuple sequence, the clustered and non-clustered searches, the
// scans and the TID fetch return the same slots, tuples and pages, and
// every auxiliary Lookup returns the same TIDs and pages.
func TestImageAccessMatchesReference(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 3000, CorrelationWindow: 100, Seed: 11})
	cfg := DefaultConfig()
	cfg.ChainedReplicas = true
	p := testProcs
	specs := workload.EstimateSpecs(workload.LowModerate(rel.Cardinality()), rel.Cardinality(), cfg.HW, cfg.Costs)
	magic, err := core.BuildMAGIC(rel, []int{storage.Unique1, storage.Unique2}, specs,
		workload.PlanParamsFor(rel.Cardinality(), p, cfg.Costs), nil)
	if err != nil {
		t.Fatal(err)
	}
	card := int64(rel.Cardinality())
	for _, pl := range []core.Placement{
		core.NewRangeForRelation(rel, storage.Unique1, p),
		core.NewBERDForRelation(rel, storage.Unique1, []int{storage.Unique2}, p),
		magic,
	} {
		img, err := NewImage(rel, pl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := referenceHoldings(cfg, make([]int, p), identitySlots(p), []*storage.Relation{rel}, []core.Placement{pl})
		got := make(map[layoutKey]exec.Holding)
		for i, s := range img.rels[0].primary {
			got[layoutKey{rel.Name, i, false}] = s
		}
		for i, s := range img.rels[0].backup {
			if s.Frag != nil {
				got[layoutKey{rel.Name, i, true}] = s
			}
		}
		if len(got) != len(want) || len(want) != 2*p {
			t.Fatalf("%s: image holds %d fragments, reference %d, want %d", pl.Name(), len(got), len(want), 2*p)
		}
		for k, w := range want {
			g := got[k]
			if gt, wt := accessTraces(t, g.Frag, card), accessTraces(t, w.frag, card); !reflect.DeepEqual(gt, wt) {
				for i := range wt {
					if !reflect.DeepEqual(gt[i], wt[i]) {
						t.Errorf("%s %+v: access %d = %+v, reference %+v", pl.Name(), k, i, gt[i], wt[i])
						break
					}
				}
				t.Fatalf("%s %+v: access methods differ from the reference", pl.Name(), k)
			}
			if gl, wl := auxLookups(auxInAttrOrder(g), card), auxLookups(w.aux, card); !reflect.DeepEqual(gl, wl) {
				t.Fatalf("%s %+v: aux lookups %+v, reference %+v", pl.Name(), k, gl, wl)
			}
			if pl.Name() == "berd" && len(w.aux) == 0 {
				t.Fatalf("%s %+v: reference has no auxiliary tree", pl.Name(), k)
			}
		}
	}
}
