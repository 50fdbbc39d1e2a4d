package storage

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/btree"
)

// Layout fixes the physical constants of fragment construction.
type Layout struct {
	TuplesPerPage int // Table 2: 36
	IndexFanout   int // children per interior index page (derived)
	IndexLeafCap  int // entries per leaf index page (derived)
}

// DefaultLayout matches Table 2 plus the derived index page capacities
// documented in DESIGN.md.
func DefaultLayout() Layout {
	return Layout{TuplesPerPage: 36, IndexFanout: 400, IndexLeafCap: 400}
}

// Allocator hands out physical page numbers on one node's disk.
type Allocator struct {
	next int
	max  int
}

// NewAllocator creates an allocator over [0, capacity) pages.
func NewAllocator(capacity int) *Allocator {
	return &Allocator{max: capacity}
}

// Alloc returns the next free physical page.
func (a *Allocator) Alloc() int {
	if a.next >= a.max {
		panic(fmt.Sprintf("storage: disk full: %d pages allocated", a.max))
	}
	a.next++
	return a.next - 1
}

// AllocRun returns the first page of a contiguous run of n pages.
func (a *Allocator) AllocRun(n int) int {
	if a.next+n > a.max {
		panic(fmt.Sprintf("storage: disk full: need %d pages, %d free", n, a.max-a.next))
	}
	start := a.next
	a.next += n
	return start
}

// Used reports the number of pages allocated so far.
func (a *Allocator) Used() int { return a.next }

// Access is the result of an access-method invocation: the index pages and
// data pages to touch (in order) and the qualifying tuples. DataPages may
// contain repeats for non-clustered access; the buffer pool makes the
// repeats cheap, exactly as on the real system.
type Access struct {
	IndexPages []int
	DataPages  []int
	Tuples     []Tuple
}

// PageCount is the total pages this access touches as the buffer pool
// sees them — index plus data, repeats included.
func (a Access) PageCount() int { return len(a.IndexPages) + len(a.DataPages) }

// Index is one B+-tree over a fragment's attribute.
type Index struct {
	Attr      int
	Clustered bool
	Tree      *btree.Tree
}

// Fragment is one node's piece of a declustered relation: tuples stored in
// clustered-attribute order across a contiguous run of data pages, plus any
// indexes.
type Fragment struct {
	Node          int
	ClusteredAttr int
	Tuples        []Tuple // sorted by ClusteredAttr
	layout        Layout

	dataBase  int // first physical data page
	dataPages int
	slotOfTID map[int64]int
	indexes   map[int]*Index
}

// BuildFragment lays out tuples (sorted internally by clusteredAttr) on
// pages from alloc and returns the fragment. Indexes are added with
// AddIndex. An empty tuple set is legal and occupies no data pages.
func BuildFragment(node int, tuples []Tuple, clusteredAttr int, layout Layout, alloc *Allocator) *Fragment {
	if layout.TuplesPerPage <= 0 {
		panic("storage: layout.TuplesPerPage must be positive")
	}
	ts := append([]Tuple(nil), tuples...)
	slices.SortStableFunc(ts, func(a, b Tuple) int {
		return cmp.Compare(a.Attrs[clusteredAttr], b.Attrs[clusteredAttr])
	})
	pages := (len(ts) + layout.TuplesPerPage - 1) / layout.TuplesPerPage
	base := 0
	if pages > 0 {
		base = alloc.AllocRun(pages)
	}
	f := &Fragment{
		Node:          node,
		ClusteredAttr: clusteredAttr,
		Tuples:        ts,
		layout:        layout,
		dataBase:      base,
		dataPages:     pages,
		slotOfTID:     make(map[int64]int, len(ts)),
		indexes:       make(map[int]*Index),
	}
	for slot, t := range ts {
		f.slotOfTID[t.TID] = slot
	}
	return f
}

// AddIndex builds a B+-tree on attr. The clustered index (attr ==
// ClusteredAttr) maps values to slots; a non-clustered index maps values to
// TIDs. Index pages come from alloc, after the data pages.
func (f *Fragment) AddIndex(attr int, alloc *Allocator) *Index {
	if _, dup := f.indexes[attr]; dup {
		panic(fmt.Sprintf("storage: duplicate index on %s", AttrName(attr)))
	}
	clustered := attr == f.ClusteredAttr
	entries := make([]btree.Entry, len(f.Tuples))
	for slot, t := range f.Tuples {
		val := int64(slot)
		if !clustered {
			val = t.TID
		}
		entries[slot] = btree.Entry{Key: t.Attrs[attr], Val: val}
	}
	if !clustered {
		slices.SortStableFunc(entries, func(a, b btree.Entry) int { return cmp.Compare(a.Key, b.Key) })
	}
	tree := btree.New(f.layout.IndexFanout, f.layout.IndexLeafCap, alloc.Alloc)
	tree.Bulk(entries)
	idx := &Index{Attr: attr, Clustered: clustered, Tree: tree}
	f.indexes[attr] = idx
	return idx
}

// Index returns the index on attr, or nil.
func (f *Fragment) Index(attr int) *Index { return f.indexes[attr] }

// NumTuples reports the fragment cardinality.
func (f *Fragment) NumTuples() int { return len(f.Tuples) }

// NumDataPages reports the number of data pages.
func (f *Fragment) NumDataPages() int { return f.dataPages }

// FootprintPages is the fragment's on-disk footprint: data pages plus
// every index's tree pages. Used to normalize fragment heat by capacity.
func (f *Fragment) FootprintPages() int {
	pages := f.dataPages
	for _, ix := range f.indexes {
		pages += ix.Tree.Pages()
	}
	return pages
}

// DataPageOfSlot maps a slot to its physical page.
func (f *Fragment) DataPageOfSlot(slot int) int {
	return f.dataBase + slot/f.layout.TuplesPerPage
}

// SearchClustered evaluates lo <= ClusteredAttr <= hi through the clustered
// index: the root-to-leaf path plus the contiguous data pages holding the
// qualifying tuples. An error means the fragment has no clustered index —
// a routing bug (or a query sent to a replica built without one), which the
// executor reports as a query failure rather than a crash.
func (f *Fragment) SearchClustered(lo, hi int64) (Access, error) {
	idx := f.indexes[f.ClusteredAttr]
	if idx == nil {
		return Access{}, fmt.Errorf("storage: node %d: no clustered index", f.Node)
	}
	slots, path := idx.Tree.Range(lo, hi)
	acc := Access{IndexPages: path.Pages()}
	lastPage := -1
	for _, s := range slots {
		slot := int(s)
		pg := f.DataPageOfSlot(slot)
		if pg != lastPage {
			acc.DataPages = append(acc.DataPages, pg)
			lastPage = pg
		}
		acc.Tuples = append(acc.Tuples, f.Tuples[slot])
	}
	return acc, nil
}

// SearchNonClustered evaluates lo <= attr <= hi through a non-clustered
// index: the index path plus one data-page access per qualifying tuple, in
// index order (the pages are effectively random). Errors mean a missing
// index or an index entry pointing outside the fragment.
func (f *Fragment) SearchNonClustered(attr int, lo, hi int64) (Access, error) {
	idx := f.indexes[attr]
	if idx == nil || idx.Clustered {
		return Access{}, fmt.Errorf("storage: node %d: no non-clustered index on %s", f.Node, AttrName(attr))
	}
	tids, path := idx.Tree.Range(lo, hi)
	acc := Access{IndexPages: path.Pages()}
	for _, tid := range tids {
		slot, ok := f.slotOfTID[tid]
		if !ok {
			return Access{}, fmt.Errorf("storage: node %d: index returned foreign TID %d", f.Node, tid)
		}
		acc.DataPages = append(acc.DataPages, f.DataPageOfSlot(slot))
		acc.Tuples = append(acc.Tuples, f.Tuples[slot])
	}
	return acc, nil
}

// Scan evaluates lo <= attr <= hi with a full sequential scan: every data
// page is read in order and every tuple filtered. This is the access path
// for predicates on attributes without an index.
func (f *Fragment) Scan(attr int, lo, hi int64) Access {
	var acc Access
	for pg := 0; pg < f.dataPages; pg++ {
		acc.DataPages = append(acc.DataPages, f.dataBase+pg)
	}
	for _, t := range f.Tuples {
		if v := t.Attrs[attr]; v >= lo && v <= hi {
			acc.Tuples = append(acc.Tuples, t)
		}
	}
	return acc
}

// FetchTIDs fetches tuples by TID (BERD's second step): one data-page access
// per tuple, no index. A TID not on this node is an error — the routing
// layer must only send a node its own (or its replica's) TIDs.
func (f *Fragment) FetchTIDs(tids []int64) (Access, error) {
	var acc Access
	for _, tid := range tids {
		slot, ok := f.slotOfTID[tid]
		if !ok {
			return Access{}, fmt.Errorf("storage: node %d: TID %d not in fragment", f.Node, tid)
		}
		acc.DataPages = append(acc.DataPages, f.DataPageOfSlot(slot))
		acc.Tuples = append(acc.Tuples, f.Tuples[slot])
	}
	return acc, nil
}

// HasTID reports whether the fragment holds the tuple.
func (f *Fragment) HasTID(tid int64) bool {
	_, ok := f.slotOfTID[tid]
	return ok
}

// AuxFragment is one node's piece of a BERD auxiliary relation: an
// index-only structure mapping secondary-attribute values to the home
// processor (and TID) of the original tuple.
type AuxFragment struct {
	Node    int
	Tree    *btree.Tree
	Entries int
}

// FootprintPages is the auxiliary fragment's on-disk footprint (the tree
// is the whole structure).
func (a *AuxFragment) FootprintPages() int { return a.Tree.Pages() }

// AuxEntry is one auxiliary tuple before partitioning.
type AuxEntry struct {
	Value int64 // secondary attribute value
	TID   int64
	Proc  int // home processor of the original tuple
}

// BuildAux organizes entries (sorted internally by value) as a B+-tree whose
// leaf values encode (proc, tid).
func BuildAux(node int, entries []AuxEntry, layout Layout, alloc *Allocator) *AuxFragment {
	es := append([]AuxEntry(nil), entries...)
	slices.SortStableFunc(es, func(a, b AuxEntry) int { return cmp.Compare(a.Value, b.Value) })
	bes := make([]btree.Entry, len(es))
	for i, e := range es {
		bes[i] = btree.Entry{Key: e.Value, Val: packAux(e.Proc, e.TID)}
	}
	tree := btree.New(layout.IndexFanout, layout.IndexLeafCap, alloc.Alloc)
	tree.Bulk(bes)
	return &AuxFragment{Node: node, Tree: tree, Entries: len(es)}
}

// Lookup returns the (proc, tid) pairs for values in [lo, hi] and the index
// pages touched.
func (f *AuxFragment) Lookup(lo, hi int64) (procs []int, tids []int64, pages []int) {
	vals, path := f.Tree.Range(lo, hi)
	for _, v := range vals {
		p, tid := unpackAux(v)
		procs = append(procs, p)
		tids = append(tids, tid)
	}
	return procs, tids, path.Pages()
}

// packAux encodes (proc, tid) in one int64: proc in the high 16 bits.
func packAux(proc int, tid int64) int64 {
	if proc < 0 || proc >= 1<<16 {
		panic(fmt.Sprintf("storage: processor %d out of packable range", proc))
	}
	if tid < 0 || tid >= 1<<47 {
		panic(fmt.Sprintf("storage: TID %d out of packable range", tid))
	}
	return int64(proc)<<47 | tid
}

func unpackAux(v int64) (proc int, tid int64) {
	return int(v >> 47), v & (1<<47 - 1)
}
