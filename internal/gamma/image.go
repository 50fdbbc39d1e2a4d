package gamma

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/storage"
)

// The paper's physical design (Section 6): every fragment is sorted on
// unique2 (B) under a clustered index and carries a non-clustered index on
// unique1 (A).
const (
	clusteredAttr    = storage.Unique2
	nonClusteredAttr = storage.Unique1
)

// Image is a machine's storage on the disks of the initial membership:
// per relation its placement and holdings, each node's page high-water
// mark (marks), where the next relation's layout and each run's
// allocators start, and the Layout, ChainedReplicas and pages per disk it
// was laid out with. Nothing writes
// an image once it is built, so every run, and any number of machines
// (see New), can share one.
type Image struct {
	rels         []imageRelation
	marks        []int
	layout       storage.Layout
	chained      bool
	pagesPerDisk int
}

// NewImage validates cfg, declusters rel under placement and lays out its
// storage image: fragments, B+-trees, BERD auxiliaries and, with
// cfg.ChainedReplicas, chain replicas. Of cfg only Layout,
// ChainedReplicas and HW.PagesPerDisk shape the image.
func NewImage(rel *storage.Relation, placement core.Placement, cfg Config) (*Image, error) {
	if err := cfg.Validate(placement.Processors()); err != nil {
		return nil, err
	}
	empty := &Image{layout: cfg.Layout, chained: cfg.ChainedReplicas, pagesPerDisk: cfg.HW.PagesPerDisk()}
	return empty.withRelation(rel, placement)
}

type imageRelation struct {
	rel       *storage.Relation
	placement core.Placement
	holdings
}

// holdings is one placement generation's storage of a relation by slot:
// primary[i] is slot i's, backup[i] its chain replica (backup is empty
// without chained replicas). They carry no heat accumulators: attach
// wires each run's own.
type holdings struct {
	primary, backup []exec.Holding
}

// layOut declusters rel under placement and lays out one generation of its
// storage with the image's config. Slot by slot, slot i's storage goes on
// allocs[slotNode[i]]: its data pages, the clustered index, the
// non-clustered index, then for BERD one auxiliary tree per secondary
// attribute in ascending attribute order. Then, with chained replicas, slot
// by slot the same storage goes on the node of the slot's chain successor:
// the replica holds the same tuples keyed by the same primary home, so a
// rerouted operator returns the identical result. NewImage and
// AddRelation lay the image out here, and elastic staging every later
// generation.
//
// No tuple is copied and no fragment sorts. One pass calls HomeOf once
// per tuple and counts the slots' tuples. Then a stable scatter of the
// relation's order on the clustered attribute gives every slot its rows
// in slot order, one shared list, and a scatter of its order on the
// non-clustered attribute then the clustered one gives every slot its
// index entries in key order, equal keys in slot order. BERD's auxiliary
// entries come in value order from AuxAssignments, with the homes of the
// same pass. Every fragment of the generation shares one TID index, and a
// replica shares its primary's row list and index and auxiliary entries:
// only its pages differ.
func (img *Image) layOut(rel *storage.Relation, placement core.Placement, allocs []*storage.Allocator, slotNode []int) (holdings, error) {
	p := placement.Processors()
	homes := make([]int32, len(rel.Tuples))
	starts := make([]int, p+1) // slot i's rows are rows[starts[i]:starts[i+1]]
	for i := range rel.Tuples {
		home := placement.HomeOf(&rel.Tuples[i])
		if home < 0 || home >= p {
			return holdings{}, fmt.Errorf("gamma: placement sent tuple %d to processor %d of %d",
				rel.Tuples[i].TID, home, p)
		}
		homes[i] = int32(home)
		starts[home+1]++
	}
	for i := 1; i <= p; i++ {
		starts[i] += starts[i-1]
	}
	// scatter splits order into the slots' runs of one list, each slot's
	// rows in order's order.
	scatter := func(order []int32) [][]int32 {
		rows := make([]int32, len(order))
		next := slices.Clone(starts[:p])
		for _, r := range order {
			h := homes[r]
			rows[next[h]] = r
			next[h]++
		}
		slotRows := make([][]int32, p)
		for i := range slotRows {
			slotRows[i] = rows[starts[i]:starts[i+1]:starts[i+1]]
		}
		return slotRows
	}
	slotRows := scatter(rel.Order(clusteredAttr))
	byKey := scatter(rel.OrderThen(nonClusteredAttr, clusteredAttr))
	var auxAttrs []int
	var aux [][][]storage.AuxEntry // by auxAttrs index, then slot
	if berd, ok := placement.(*core.BERDPlacement); ok {
		auxAttrs = berd.SecondaryAttrs()
		for _, attr := range auxAttrs {
			aux = append(aux, berd.AuxAssignments(rel, attr, homes))
		}
	}
	auxMap := func() map[int]*storage.AuxFragment {
		if len(auxAttrs) == 0 {
			return nil
		}
		return make(map[int]*storage.AuxFragment, len(auxAttrs))
	}
	tidSlot := make([]int32, len(rel.Tuples))
	h := holdings{primary: make([]exec.Holding, p)}
	for i := range h.primary {
		alloc := allocs[slotNode[i]]
		frag := storage.BuildFragment(i, rel.Tuples, slotRows[i], tidSlot, clusteredAttr, img.layout, alloc)
		frag.AddIndex(clusteredAttr, nil, alloc)
		frag.AddIndex(nonClusteredAttr, byKey[i], alloc)
		h.primary[i] = exec.Holding{Frag: frag, Aux: auxMap()}
		for j, attr := range auxAttrs {
			h.primary[i].Aux[attr] = storage.BuildAux(i, aux[j][i], img.layout, alloc)
		}
	}
	if img.chained {
		h.backup = make([]exec.Holding, p)
		for i, s := range h.primary {
			b := core.ChainBackup(i, p)
			if b < 0 {
				continue
			}
			alloc := allocs[slotNode[b]]
			h.backup[i] = exec.Holding{Frag: s.Frag.Replica(alloc), Aux: auxMap()}
			for _, attr := range auxAttrs {
				h.backup[i].Aux[attr] = s.Aux[attr].Replica(alloc)
			}
		}
	}
	return h, nil
}

// attach gives the nodes a relation's holdings for placement generation
// gen: slot i's primary on nodes[slotNode[i]], then its replica on the
// node of its chain successor, each first wired to heat accumulators (nil
// when heat accounting is off). reset attaches the image at generation 0
// and elastic staging every later generation. An accumulator is keyed by
// the node whose disk holds the data, so heat moves with a migrating
// fragment and a replica's heat sums into its holder's disk; a node's
// primary and backup auxiliary trees share one. The heat map orders its
// series by creation, so callers attach relation by relation.
func attach(nodes []*exec.Node, heat *obs.HeatMap, gen int, relation string, h holdings, slotNode []int) {
	one := func(n *exec.Node, role exec.Role, s exec.Holding) {
		s.Heat = heat.Frag(relation, n.ID, role.Kind())
		s.Heat.AddSize(int64(s.Frag.FootprintPages()))
		if len(s.Aux) > 0 {
			s.AuxHeat = heat.Frag(relation, n.ID, obs.FragAux)
			for _, aux := range s.Aux { // integer sums: map order does not matter
				s.AuxHeat.AddSize(int64(aux.FootprintPages()))
			}
		}
		n.Attach(gen, relation, role, s)
	}
	for i, s := range h.primary {
		one(nodes[slotNode[i]], exec.Primary, s)
	}
	for i, s := range h.backup {
		if b := core.ChainBackup(i, len(h.backup)); b >= 0 {
			one(nodes[slotNode[b]], exec.Backup, s)
		}
	}
}

// withRelation returns a new image: img's relations plus rel declustered
// under placement, laid out on the identity slot map after img's marks.
func (img *Image) withRelation(rel *storage.Relation, placement core.Placement) (*Image, error) {
	if len(rel.Tuples) > math.MaxInt32 {
		return nil, fmt.Errorf("gamma: relation %s has %d tuples, more than a row list holds", rel.Name, len(rel.Tuples))
	}
	for i := range rel.Tuples {
		if rel.Tuples[i].TID != int64(i) {
			return nil, fmt.Errorf("gamma: relation %s: tuple %d has TID %d, not its position", rel.Name, i, rel.Tuples[i].TID)
		}
	}
	p := placement.Processors()
	allocs := img.allocators(p)
	h, err := img.layOut(rel, placement, allocs, identitySlots(p))
	if err != nil {
		return nil, err
	}
	next := &Image{
		rels:         append(slices.Clip(img.rels), imageRelation{rel, placement, h}),
		marks:        make([]int, p),
		layout:       img.layout,
		chained:      img.chained,
		pagesPerDisk: img.pagesPerDisk,
	}
	for i, a := range allocs {
		next.marks[i] = a.Used()
	}
	return next, nil
}

// allocators returns page allocators for nodes 0..n-1, each positioned
// just after the image's pages (at page 0 on a node the image does not
// touch, such as an elastic standby).
func (img *Image) allocators(n int) []*storage.Allocator {
	allocs := make([]*storage.Allocator, n)
	for i := range allocs {
		allocs[i] = storage.NewAllocator(img.pagesPerDisk)
		if i < len(img.marks) {
			allocs[i].AllocRun(img.marks[i])
		}
	}
	return allocs
}

// identitySlots maps placement slot i to node i for p slots.
func identitySlots(p int) []int {
	nodes := make([]int, p)
	for i := range nodes {
		nodes[i] = i
	}
	return nodes
}
