package storage

import (
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

// Access is the result of an access-method invocation: the index pages
// and data pages to touch, in order, and the qualifying tuples as slots
// into the fragment's read-only image, so nothing is copied. A clustered
// range qualifies the contiguous slots [First, First+N) and reads each of
// their pages once; every other method lists its N qualifying slots in
// Slots, in access order. Non-clustered search and TID fetch read one data
// page per slot, repeats included (the buffer pool makes the repeats
// cheap, exactly as on the real system); a scan reads every data page in
// order.
type Access struct {
	IndexPages []int
	N          int
	First      int
	Slots      []int

	frag *Fragment
	scan bool
}

// slot returns the i-th qualifying slot, 0 <= i < N.
func (a *Access) slot(i int) int {
	if a.Slots != nil {
		return a.Slots[i]
	}
	return a.First + i
}

// Tuple returns the i-th qualifying tuple in place in the relation;
// callers must not modify it.
func (a *Access) Tuple(i int) *Tuple { return a.frag.Tuple(a.slot(i)) }

// NumDataPages is the number of data page requests, repeats included.
func (a *Access) NumDataPages() int {
	switch {
	case a.scan:
		return a.frag.dataPages
	case a.Slots != nil || a.N == 0:
		return a.N
	}
	return a.frag.DataPageOfSlot(a.First+a.N-1) - a.frag.DataPageOfSlot(a.First) + 1
}

// DataPage returns the i-th data page request, 0 <= i < NumDataPages().
func (a *Access) DataPage(i int) int {
	switch {
	case a.scan:
		return a.frag.dataBase + i
	case a.Slots != nil:
		return a.frag.DataPageOfSlot(a.Slots[i])
	}
	return a.frag.DataPageOfSlot(a.First) + i
}

// PageCount is the total pages this access touches as the buffer pool
// sees them — index plus data, repeats included.
func (a *Access) PageCount() int { return len(a.IndexPages) + a.NumDataPages() }

// Index is one B+-tree over a fragment's attribute.
type Index struct {
	Attr      int
	Clustered bool
	Tree      *btree.Tree
}

// Fragment is one node's piece of a declustered relation: rows of the
// relation in clustered-attribute order across a contiguous run of data
// pages, plus any indexes. It holds no copy of its tuples: slot i is
// src[rows[i]], read in place in the relation's tuples.
type Fragment struct {
	Node          int
	ClusteredAttr int
	layout        Layout

	src       []Tuple // the relation's tuples; read-only
	rows      []int32 // indices into src, sorted by ClusteredAttr
	tidSlot   []int32 // TID -> slot in whichever fragment holds it
	dataBase  int     // first physical data page
	dataPages int
	indexes   map[int]*Index
}

// BuildFragment lays out the tuples src[r], r in rows, on pages from alloc
// and returns the fragment. It sorts rows in place, stably by
// clusteredAttr, and keeps rows and src as the fragment's row list: no
// tuple is copied, so src must not change while the fragment is in use.
//
// tidSlot, of len(src), is the TID index: BuildFragment records each
// row's slot at tidSlot[TID], so every TID in rows must lie in
// [0, len(src)) — the Relation contract that a TID is the tuple's
// position does it. Fragments over disjoint rows of src may share one
// TID index, and a chain replica built over its primary's rows shares the
// primary's. Indexes are added with AddIndex. An empty row list is legal
// and occupies no data pages.
func BuildFragment(node int, src []Tuple, rows, tidSlot []int32, clusteredAttr int, layout Layout, alloc *Allocator) *Fragment {
	if layout.TuplesPerPage <= 0 {
		panic("storage: layout.TuplesPerPage must be positive")
	}
	order := make([]btree.Entry, len(rows))
	for i, r := range rows {
		order[i] = btree.Entry{Key: src[r].Attrs[clusteredAttr], Val: int64(r)}
	}
	btree.SortEntries(order)
	for slot, e := range order {
		rows[slot] = int32(e.Val)
		tidSlot[src[e.Val].TID] = int32(slot)
	}
	pages := (len(rows) + layout.TuplesPerPage - 1) / layout.TuplesPerPage
	base := 0
	if pages > 0 {
		base = alloc.AllocRun(pages)
	}
	return &Fragment{
		Node:          node,
		ClusteredAttr: clusteredAttr,
		layout:        layout,
		src:           src,
		rows:          rows,
		tidSlot:       tidSlot,
		dataBase:      base,
		dataPages:     pages,
		indexes:       make(map[int]*Index),
	}
}

// AddIndex builds a B+-tree on attr. The clustered index (attr ==
// ClusteredAttr) maps values to slots; a non-clustered index maps values to
// TIDs. Index pages come from alloc, after the data pages.
func (f *Fragment) AddIndex(attr int, alloc *Allocator) *Index {
	if _, dup := f.indexes[attr]; dup {
		panic(fmt.Sprintf("storage: duplicate index on %s", AttrName(attr)))
	}
	clustered := attr == f.ClusteredAttr
	entries := make([]btree.Entry, len(f.rows))
	for slot, r := range f.rows {
		t := &f.src[r]
		val := int64(slot)
		if !clustered {
			val = t.TID
		}
		entries[slot] = btree.Entry{Key: t.Attrs[attr], Val: val}
	}
	if !clustered {
		btree.SortEntries(entries)
	}
	tree := btree.Bulk(f.layout.IndexFanout, f.layout.IndexLeafCap, entries, alloc.AllocRun)
	idx := &Index{Attr: attr, Clustered: clustered, Tree: tree}
	f.indexes[attr] = idx
	return idx
}

// Index returns the index on attr, or nil.
func (f *Fragment) Index(attr int) *Index { return f.indexes[attr] }

// NumTuples reports the fragment cardinality.
func (f *Fragment) NumTuples() int { return len(f.rows) }

// Tuple returns the tuple in slot, 0 <= slot < NumTuples(), in place in
// the relation; callers must not modify it.
func (f *Fragment) Tuple(slot int) *Tuple { return &f.src[f.rows[slot]] }

// slotOfTID returns the slot holding tid, and false when the fragment
// does not hold it: the TID index names a slot for every TID of its
// layout, and the slot is this fragment's only if its row has that TID.
func (f *Fragment) slotOfTID(tid int64) (int, bool) {
	if tid < 0 || tid >= int64(len(f.tidSlot)) {
		return 0, false
	}
	slot := int(f.tidSlot[tid])
	return slot, slot < len(f.rows) && f.src[f.rows[slot]].TID == tid
}

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

// Buffers lends the access methods and Lookup the lists they fill: the
// index pages, the qualifying slots, and an aux lookup's TIDs and their
// grouping by processor. A caller that passes the same Buffers to every
// call allocates nothing once the lists have grown to its largest answer;
// what a call returns aliases them until the next call with them. A nil
// *Buffers makes every call allocate its own lists.
type Buffers struct {
	pages  []int
	slots  []int
	tids   []int64
	byProc [][]int64
}

// pageList returns an empty page list for a walk of t: the buffer's, or a
// new one sized for the descent plus three leaves, which on a bulk-loaded
// (full) tree holds any range of up to one leaf's worth of entries.
func (b *Buffers) pageList(t *btree.Tree) []int {
	if b == nil || b.pages == nil {
		return make([]int, 0, t.Height()+2)
	}
	return b.pages[:0]
}

// slotList returns an empty slot list: the buffer's, or nil.
func (b *Buffers) slotList() []int {
	if b == nil {
		return nil
	}
	return b.slots[:0]
}

// keep records the lists an access filled, so the next call reuses what
// they grew to.
func (b *Buffers) keep(acc *Access) {
	if b == nil {
		return
	}
	if acc.IndexPages != nil {
		b.pages = acc.IndexPages
	}
	if acc.Slots != nil {
		b.slots = acc.Slots
	}
}

// SearchClustered evaluates lo <= ClusteredAttr <= hi through the clustered
// index: the root-to-leaf path plus the contiguous data pages holding the
// qualifying tuples. The clustered index maps keys to slots in slot order,
// so the qualifying slots form one run and are never listed. An error
// means the fragment has no clustered index — a routing bug (or a query
// sent to a replica built without one), which the executor reports as a
// query failure rather than a crash. The page list comes from buf.
func (f *Fragment) SearchClustered(lo, hi int64, buf *Buffers) (Access, error) {
	idx := f.indexes[f.ClusteredAttr]
	if idx == nil {
		return Access{}, fmt.Errorf("storage: node %d: no clustered index", f.Node)
	}
	acc := Access{frag: f}
	acc.IndexPages = idx.Tree.Walk(lo, hi, buf.pageList(idx.Tree), func(run []btree.Entry) {
		if acc.N == 0 {
			acc.First = int(run[0].Val)
		}
		acc.N += len(run)
	})
	buf.keep(&acc)
	return acc, nil
}

// SearchNonClustered evaluates lo <= attr <= hi through a non-clustered
// index: the index path plus one data-page access per qualifying tuple, in
// index order (the pages are effectively random). Errors mean a missing
// index or an index entry pointing outside the fragment. The page and
// slot lists come from buf.
func (f *Fragment) SearchNonClustered(attr int, lo, hi int64, buf *Buffers) (Access, error) {
	idx := f.indexes[attr]
	if idx == nil || idx.Clustered {
		return Access{}, fmt.Errorf("storage: node %d: no non-clustered index on %s", f.Node, AttrName(attr))
	}
	acc := Access{frag: f, Slots: buf.slotList()}
	var err error
	acc.IndexPages = idx.Tree.Walk(lo, hi, buf.pageList(idx.Tree), func(run []btree.Entry) {
		for _, e := range run {
			slot, ok := f.slotOfTID(e.Val)
			if !ok {
				if err == nil {
					err = fmt.Errorf("storage: node %d: index returned foreign TID %d", f.Node, e.Val)
				}
				return
			}
			acc.Slots = append(acc.Slots, slot)
		}
	})
	buf.keep(&acc)
	if err != nil {
		return Access{}, err
	}
	acc.N = len(acc.Slots)
	return acc, nil
}

// Scan evaluates lo <= attr <= hi with a full sequential scan: every data
// page is read in order and every tuple filtered. This is the access path
// for predicates on attributes without an index. The slot list comes from
// buf.
func (f *Fragment) Scan(attr int, lo, hi int64, buf *Buffers) Access {
	acc := Access{frag: f, scan: true, Slots: buf.slotList()}
	for slot, r := range f.rows {
		if v := f.src[r].Attrs[attr]; v >= lo && v <= hi {
			acc.Slots = append(acc.Slots, slot)
		}
	}
	buf.keep(&acc)
	acc.N = len(acc.Slots)
	return acc
}

// FetchTIDs fetches tuples by TID (BERD's second step): one data-page access
// per tuple, no index. A TID not on this node is an error — the routing
// layer must only send a node its own (or its replica's) TIDs. The slot
// list comes from buf.
func (f *Fragment) FetchTIDs(tids []int64, buf *Buffers) (Access, error) {
	acc := Access{frag: f, N: len(tids), Slots: buf.slotList()}
	if len(tids) > 0 {
		acc.Slots = slices.Grow(acc.Slots, len(tids))
	}
	for _, tid := range tids {
		slot, ok := f.slotOfTID(tid)
		if !ok {
			buf.keep(&acc)
			return Access{}, fmt.Errorf("storage: node %d: TID %d not in fragment", f.Node, tid)
		}
		acc.Slots = append(acc.Slots, slot)
	}
	buf.keep(&acc)
	return acc, nil
}

// AuxFragment is one node's piece of a BERD auxiliary relation: an
// index-only structure mapping secondary-attribute values to the home
// processor (and TID) of the original tuple.
type AuxFragment struct {
	Node int
	Tree *btree.Tree
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
	bes := make([]btree.Entry, len(entries))
	for i, e := range entries {
		bes[i] = btree.Entry{Key: e.Value, Val: packAux(e.Proc, e.TID)}
	}
	btree.SortEntries(bes)
	return &AuxFragment{Node: node, Tree: btree.Bulk(layout.IndexFanout, layout.IndexLeafCap, bes, alloc.AllocRun)}
}

// Lookup returns the TIDs of values in [lo, hi] grouped by home processor,
// plus the number of qualifying entries and the index pages touched.
// tidsByProc[proc] lists proc's TIDs in value order, or is nil when none
// qualify there; the slice ends at the highest processor with one, and is
// nil when nothing qualifies. The lists share one backing array, each
// capped at its own length, so appending to one copies it. The page, TID
// and grouping lists come from buf.
func (f *AuxFragment) Lookup(lo, hi int64, buf *Buffers) (tidsByProc [][]int64, entries int, pages []int) {
	var scratch [512]int64 // a typical answer is collected without the heap
	packed := scratch[:0]
	procs := 0
	pages = f.Tree.Walk(lo, hi, buf.pageList(f.Tree), func(run []btree.Entry) {
		for _, e := range run {
			packed = append(packed, e.Val)
			p, _ := unpackAux(e.Val)
			procs = max(procs, p+1)
		}
	})
	if buf != nil {
		buf.pages = pages
	}
	if len(packed) == 0 {
		return nil, 0, pages
	}
	// Group by processor with one counting pass and a stable scatter,
	// which keeps value order within each group.
	var small [64]int // the counts of up to 64 processors, off the heap
	ends := small[:min(procs, len(small))]
	if procs > len(small) {
		ends = make([]int, procs)
	}
	for _, v := range packed {
		p, _ := unpackAux(v)
		ends[p]++
	}
	start := 0
	for p, n := range ends {
		ends[p] = start // the group's start until the scatter moves it on
		start += n
	}
	var tids []int64
	if buf != nil {
		tids = buf.tids[:0]
	}
	tids = slices.Grow(tids, len(packed))[:len(packed)]
	for _, v := range packed {
		p, tid := unpackAux(v)
		tids[ends[p]] = tid
		ends[p]++
	}
	if buf != nil {
		buf.tids = tids
		tidsByProc = buf.byProc[:0]
	}
	tidsByProc = slices.Grow(tidsByProc, procs)[:procs]
	start = 0
	for p, end := range ends {
		tidsByProc[p] = nil
		if end > start {
			tidsByProc[p] = tids[start:end:end]
		}
		start = end
	}
	if buf != nil {
		buf.byProc = tidsByProc
	}
	return tidsByProc, len(packed), pages
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
