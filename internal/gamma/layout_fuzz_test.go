package gamma

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/storage"
)

// tablePlacement sends tuple i to homes[i]; it routes nothing.
type tablePlacement struct {
	homes []int
	p     int
}

func (t tablePlacement) Name() string                    { return "table" }
func (t tablePlacement) Processors() int                 { return t.p }
func (t tablePlacement) HomeOf(tup *storage.Tuple) int   { return t.homes[tup.TID] }
func (t tablePlacement) Route(core.Predicate) core.Route { return core.Route{} }

// treeImage is a B+-tree as a search sees it: its entries in key order,
// the pages a walk of the whole key range touches, its root page and its
// page count (the run ends at the root).
type treeImage struct {
	Entries     []btree.Entry
	Walk        []int
	Root, Pages int
}

func treeImageOf(t *btree.Tree) treeImage {
	ti := treeImage{Root: t.RootPage(), Pages: t.Pages()}
	ti.Walk = t.Walk(math.MinInt64, math.MaxInt64, nil, func(run []btree.Entry) {
		ti.Entries = append(ti.Entries, run...)
	})
	return ti
}

// holdingImage is one holding as FuzzImageLayout compares it: its rows as
// TIDs in slot order, the slot its TID index gives every TID of the
// relation (-1 where the holding does not hold it), its first data page
// (-1 when empty), and its trees: the clustered index, the non-clustered
// index, then the auxiliary trees in ascending attribute order.
type holdingImage struct {
	TIDs     []int64
	TIDSlots []int
	DataBase int
	Trees    []treeImage
}

func holdingImageOf(h exec.Holding, card int) holdingImage {
	f := h.Frag
	hi := holdingImage{DataBase: -1}
	if f.NumTuples() > 0 {
		hi.DataBase = f.DataPageOfSlot(0)
	}
	for slot := 0; slot < f.NumTuples(); slot++ {
		hi.TIDs = append(hi.TIDs, f.Tuple(slot).TID)
	}
	for tid := 0; tid < card; tid++ {
		slot := -1
		if acc, err := f.FetchTIDs([]int64{int64(tid)}, nil); err == nil {
			slot = acc.Slots[0]
		}
		hi.TIDSlots = append(hi.TIDSlots, slot)
	}
	hi.Trees = []treeImage{treeImageOf(f.Index(clusteredAttr).Tree), treeImageOf(f.Index(nonClusteredAttr).Tree)}
	for _, a := range auxInAttrOrder(h) {
		hi.Trees = append(hi.Trees, treeImageOf(a.Tree))
	}
	return hi
}

// sortPathLayout lays rel out under pl as the layout did when every
// fragment sorted its own input: each slot's rows in relation order,
// sorted stably by the clustered key; its clustered index over them in
// slot order; its non-clustered entries in slot order, sorted stably by
// key; and each auxiliary tree's entries in relation order, sorted stably
// by value. Slot by slot on allocs[slotNode[slot]] it allocates the data
// pages, the two indexes and the auxiliary trees in ascending attribute
// order, then, with chained, the same for each replica on its chain
// successor's node.
func sortPathLayout(rel *storage.Relation, pl core.Placement, lay storage.Layout, chained bool, allocs []*storage.Allocator, slotNode []int) map[layoutKey]holdingImage {
	p, n := pl.Processors(), len(rel.Tuples)
	tuples := rel.Tuples
	byKey := func(attr int) func(a, b int32) int {
		return func(a, b int32) int { return cmp.Compare(tuples[a].Attrs[attr], tuples[b].Attrs[attr]) }
	}
	slotRows := make([][]int32, p)
	for row := range tuples {
		h := pl.HomeOf(&tuples[row])
		slotRows[h] = append(slotRows[h], int32(row))
	}
	for _, rows := range slotRows {
		slices.SortStableFunc(rows, byKey(clusteredAttr))
	}
	var auxAttrs []int
	var aux [][][]storage.AuxEntry // by auxAttrs index, then processor
	if berd, ok := pl.(*core.BERDPlacement); ok {
		auxAttrs = berd.SecondaryAttrs()
		for _, attr := range auxAttrs {
			per := make([][]storage.AuxEntry, p)
			for row := range tuples {
				t := tuples[row]
				q := berd.AuxHomeOf(attr, t.Attrs[attr])
				per[q] = append(per[q], storage.AuxEntry{Value: t.Attrs[attr], TID: t.TID, Proc: pl.HomeOf(&t)})
			}
			for _, es := range per {
				slices.SortStableFunc(es, func(a, b storage.AuxEntry) int { return cmp.Compare(a.Value, b.Value) })
			}
			aux = append(aux, per)
		}
	}
	build := func(slot int, alloc *storage.Allocator) holdingImage {
		rows := slotRows[slot]
		hi := holdingImage{DataBase: -1, TIDSlots: make([]int, n)}
		for tid := range hi.TIDSlots {
			hi.TIDSlots[tid] = -1
		}
		if len(rows) > 0 {
			hi.DataBase = alloc.AllocRun((len(rows) + lay.TuplesPerPage - 1) / lay.TuplesPerPage)
		}
		clustered := make([]btree.Entry, len(rows))
		nonClustered := make([]btree.Entry, len(rows))
		for s, r := range rows {
			t := &tuples[r]
			hi.TIDs = append(hi.TIDs, t.TID)
			hi.TIDSlots[t.TID] = s
			clustered[s] = btree.Entry{Key: t.Attrs[clusteredAttr], Val: int64(s)}
			nonClustered[s] = btree.Entry{Key: t.Attrs[nonClusteredAttr], Val: t.TID}
		}
		slices.SortStableFunc(nonClustered, func(a, b btree.Entry) int { return cmp.Compare(a.Key, b.Key) })
		for _, es := range [][]btree.Entry{clustered, nonClustered} {
			hi.Trees = append(hi.Trees, treeImageOf(btree.Bulk(lay.IndexFanout, lay.IndexLeafCap, es, alloc.AllocRun)))
		}
		for j := range auxAttrs {
			hi.Trees = append(hi.Trees, treeImageOf(storage.BuildAux(slot, aux[j][slot], lay, alloc).Tree))
		}
		return hi
	}
	out := make(map[layoutKey]holdingImage)
	for i := 0; i < p; i++ {
		out[layoutKey{rel.Name, i, false}] = build(i, allocs[slotNode[i]])
	}
	if chained {
		for i := 0; i < p; i++ {
			if b := core.ChainBackup(i, p); b >= 0 {
				out[layoutKey{rel.Name, i, true}] = build(i, allocs[slotNode[b]])
			}
		}
	}
	return out
}

// fuzzAllocators returns one allocator per node, node i's starting at
// page (start+i)%3, so the nodes' page numbers differ.
func fuzzAllocators(nodes, start int) []*storage.Allocator {
	allocs := make([]*storage.Allocator, nodes)
	for i := range allocs {
		allocs[i] = storage.NewAllocator(1 << 20)
		allocs[i].AllocRun((start + i) % 3)
	}
	return allocs
}

// FuzzImageLayout lays out relations decoded from the fuzz input and
// compares every holding with sortPathLayout's, the layout of fragments
// that each sort their own input. Three bytes make a tuple, whose TID is
// its position: its unique2 (the clustered key), unique1 (the
// non-clustered key) and a third byte giving unique3 and, for a table
// placement, the tuple's home. Keys are reduced into a domain of 1-6
// values, so both indexed attributes repeat and the tuples are seldom in
// unique2 order. mode picks the placement: a table placement of the third
// bytes, a BERD placement on unique1 with auxiliary trees on unique2 and
// unique3, one on unique2 with an auxiliary tree on unique1, or a range
// placement on unique1. The slots go to the nodes rotated by rot among
// one node more than there are slots, each node's allocator already
// partly used, and chained adds the chain replicas. Holding by holding
// the rows, the TID index, every tree's entries and pages and the
// allocators' marks must be the reference's.
func FuzzImageLayout(f *testing.F) {
	f.Add([]byte{5, 1, 0, 4, 1, 1, 3, 0, 2, 2, 2, 0, 1, 0, 1, 0, 2, 2}, uint8(2), uint8(0), uint8(3), uint8(1), true)
	f.Add([]byte{9, 3, 7, 8, 3, 6, 7, 2, 5, 6, 2, 4, 5, 1, 3, 4, 1, 2, 3, 0, 1}, uint8(3), uint8(1), uint8(4), uint8(2), true)
	f.Add([]byte{2, 2, 2, 1, 1, 1, 0, 0, 0, 2, 0, 1, 1, 2, 0}, uint8(1), uint8(2), uint8(2), uint8(0), false)
	f.Add([]byte{4, 0, 9, 3, 1, 8, 2, 2, 7, 1, 3, 6, 0, 4, 5, 4, 4, 4}, uint8(4), uint8(3), uint8(5), uint8(3), true)
	f.Add([]byte{1, 1, 1}, uint8(0), uint8(1), uint8(0), uint8(0), true)
	f.Fuzz(func(t *testing.T, data []byte, procs, mode, domain, rot uint8, chained bool) {
		const maxTuples = 300
		p := 1 + int(procs)%6
		dom := 1 + int64(domain)%6
		n := min(len(data)/3, maxTuples)
		if n == 0 {
			return
		}
		tuples := make([]storage.Tuple, n)
		homes := make([]int, n)
		for i := range tuples {
			b := data[3*i : 3*i+3]
			tuples[i].TID = int64(i)
			tuples[i].Attrs[storage.Unique2] = int64(b[0]) % dom
			tuples[i].Attrs[storage.Unique1] = int64(b[1]) % dom
			tuples[i].Attrs[storage.Unique3] = int64(b[2]) % dom
			homes[i] = int(b[2]) % p
		}
		rel := &storage.Relation{Name: "fuzz", Tuples: tuples}
		var pl core.Placement
		switch mode % 4 {
		case 0:
			pl = tablePlacement{homes, p}
		case 1:
			pl = core.NewBERDForRelation(rel, storage.Unique1, []int{storage.Unique3, storage.Unique2}, p)
		case 2:
			pl = core.NewBERDForRelation(rel, storage.Unique2, []int{storage.Unique1}, p)
		default:
			pl = core.NewRangeForRelation(rel, storage.Unique1, p)
		}
		lay := storage.Layout{TuplesPerPage: 3, IndexFanout: 3, IndexLeafCap: 2}
		slotNode := make([]int, p)
		for i := range slotNode {
			slotNode[i] = (i + int(rot)) % (p + 1)
		}

		img := &Image{layout: lay, chained: chained, pagesPerDisk: 1 << 20}
		allocs := fuzzAllocators(p+1, int(rot))
		h, err := img.layOut(rel, pl, allocs, slotNode)
		if err != nil {
			t.Fatal(err)
		}
		refAllocs := fuzzAllocators(p+1, int(rot))
		want := sortPathLayout(rel, pl, lay, chained, refAllocs, slotNode)

		got := make(map[layoutKey]holdingImage)
		for i, s := range h.primary {
			got[layoutKey{rel.Name, i, false}] = holdingImageOf(s, n)
		}
		for i, s := range h.backup {
			if s.Frag != nil {
				got[layoutKey{rel.Name, i, true}] = holdingImageOf(s, n)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("layout holds %d holdings, reference %d", len(got), len(want))
		}
		for k, w := range want {
			if g := got[k]; !reflect.DeepEqual(g, w) {
				t.Fatalf("%s %+v:\n got %+v\nwant %+v", pl.Name(), k, g, w)
			}
		}
		for i := range allocs {
			if g, w := allocs[i].Used(), refAllocs[i].Used(); g != w {
				t.Fatalf("%s: node %d's allocator at %d, reference %d", pl.Name(), i, g, w)
			}
		}
	})
}
