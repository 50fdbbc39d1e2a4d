package btree

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refNode is one page of referenceTree.
type refNode struct {
	page     int
	leaf     bool
	keys     []int64 // interior: len(children)-1 separators
	children []*refNode
	entries  []Entry
	next     *refNode // leaf sibling chain
}

// referenceTree is the package's first B+-tree: a pointer tree of nodes
// with per-node key, child and entry slices and a leaf sibling chain,
// created empty, bulk-loaded, and searched by descending from the root.
// It is kept, without its insert path, as the specification the flat
// tree's page traces, visited runs and shape must match exactly.
type referenceTree struct {
	fanout  int
	leafCap int
	alloc   func() int
	root    *refNode
	height  int
	size    int
	pages   int
}

func newReferenceTree(fanout, leafCap int, alloc func() int) *referenceTree {
	if fanout < 3 {
		panic(fmt.Sprintf("btree: fanout %d too small (need >= 3)", fanout))
	}
	if leafCap < 2 {
		panic(fmt.Sprintf("btree: leaf capacity %d too small (need >= 2)", leafCap))
	}
	t := &referenceTree{fanout: fanout, leafCap: leafCap, alloc: alloc}
	t.root = t.newNode(true)
	t.height = 1
	return t
}

func (t *referenceTree) newNode(leaf bool) *refNode {
	t.pages++
	return &refNode{page: t.alloc(), leaf: leaf}
}

// Bulk fills an empty tree from sorted entries, taken over without a copy:
// full leaves left to right (the empty root becomes leaf 0), then each
// interior level bottom-up, one node per group of fanout children.
func (t *referenceTree) Bulk(entries []Entry) {
	if t.size != 0 {
		panic("btree: Bulk on non-empty tree")
	}
	if !slices.IsSortedFunc(entries, func(a, b Entry) int { return cmp.Compare(a.Key, b.Key) }) {
		panic("btree: Bulk entries not sorted")
	}
	if len(entries) == 0 {
		return
	}
	leaves := []*refNode{t.root}
	for i := 0; i < len(entries); i += t.leafCap {
		end := min(i+t.leafCap, len(entries))
		n := leaves[0]
		if i > 0 {
			n = t.newNode(true)
			leaves[len(leaves)-1].next = n
			leaves = append(leaves, n)
		}
		n.entries = entries[i:end:end]
	}
	t.size = len(entries)
	level := leaves
	for len(level) > 1 {
		var parents []*refNode
		for i := 0; i < len(level); i += t.fanout {
			end := min(i+t.fanout, len(level))
			p := t.newNode(false)
			p.children = append(p.children, level[i:end]...)
			for j := i + 1; j < end; j++ {
				p.keys = append(p.keys, refMinKey(level[j]))
			}
			parents = append(parents, p)
		}
		level = parents
		t.height++
	}
	t.root = level[0]
}

func refMinKey(n *refNode) int64 {
	for !n.leaf {
		n = n.children[0]
	}
	return n.entries[0].Key
}

// Walk is the pointer tree's range search: descend from the root to the
// leftmost child that can hold lo, then scan leaves along the sibling
// chain until a key past hi.
func (t *referenceTree) Walk(lo, hi int64, pages []int, visit func([]Entry)) []int {
	if t.size == 0 {
		return append(pages, t.root.page)
	}
	n := t.root
	for !n.leaf {
		pages = append(pages, n.page)
		// Separators are inclusive on both sides for duplicate keys, so the
		// leftmost child that can contain lo is the one below the first
		// separator >= lo.
		ci := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= lo })
		n = n.children[ci]
	}
	for ; n != nil; n = n.next {
		pages = append(pages, n.page)
		es := n.entries
		i := sort.Search(len(es), func(i int) bool { return es[i].Key >= lo })
		j := i + sort.Search(len(es)-i, func(k int) bool { return es[i+k].Key > hi })
		if j > i {
			visit(es[i:j])
		}
		if len(es) > 0 && es[len(es)-1].Key > hi {
			break
		}
	}
	return pages
}

func (t *referenceTree) Height() int   { return t.height }
func (t *referenceTree) Pages() int    { return t.pages }
func (t *referenceTree) RootPage() int { return t.root.page }

// pageCounter is a counting page allocator, as storage.Allocator is: it
// hands out pages in order from next.
type pageCounter struct{ next int }

func (c *pageCounter) Alloc() int { return c.AllocRun(1) }

func (c *pageCounter) AllocRun(n int) int {
	c.next += n
	return c.next - n
}

// walkRuns runs walk over [lo, hi] behind a one-page prefix, which Walk
// must append to, and returns the pages and the visited runs.
func walkRuns(walk func(lo, hi int64, pages []int, visit func([]Entry)) []int, lo, hi int64) ([]int, [][]Entry) {
	var runs [][]Entry
	pages := walk(lo, hi, []int{-1}, func(run []Entry) { runs = append(runs, run) })
	return pages, runs
}

// sameRuns reports whether a and b are the same runs of the same storage:
// equal lengths starting at the same entry, not merely equal contents.
func sameRuns(a, b [][]Entry) bool {
	return slices.EqualFunc(a, b, func(x, y []Entry) bool {
		return len(x) == len(y) && len(x) > 0 && &x[0] == &y[0]
	})
}

// checkAgainstReference bulk-loads entries into a Tree and a referenceTree,
// each from a counting allocator starting at base, and fails t unless
// both take the same pages and report the same shape, and unless every
// range in ranges gives both the same page trace and the same runs.
func checkAgainstReference(t *testing.T, fanout, leafCap int, entries []Entry, base int, ranges [][2]int64) {
	t.Helper()
	got, want := &pageCounter{next: base}, &pageCounter{next: base}
	tr := Bulk(fanout, leafCap, entries, got.AllocRun)
	ref := newReferenceTree(fanout, leafCap, want.Alloc)
	ref.Bulk(entries)
	if got.next != want.next || tr.Pages() != ref.Pages() || tr.Height() != ref.Height() || tr.RootPage() != ref.RootPage() {
		t.Fatalf("fanout %d, leaf cap %d, %d entries: allocated to %d, pages %d, height %d, root %d; reference %d, %d, %d, %d",
			fanout, leafCap, len(entries), got.next, tr.Pages(), tr.Height(), tr.RootPage(),
			want.next, ref.Pages(), ref.Height(), ref.RootPage())
	}
	for _, r := range ranges {
		gotPages, gotRuns := walkRuns(tr.Walk, r[0], r[1])
		wantPages, wantRuns := walkRuns(ref.Walk, r[0], r[1])
		if !slices.Equal(gotPages, wantPages) || !sameRuns(gotRuns, wantRuns) {
			t.Fatalf("fanout %d, leaf cap %d, %d entries, Walk(%d, %d): pages %v runs %v; reference pages %v runs %v",
				fanout, leafCap, len(entries), r[0], r[1], gotPages, gotRuns, wantPages, wantRuns)
		}
	}
}

// TestTreeMatchesReference holds the tree to referenceTree on random
// scripts: fanouts 3-8, leaf capacities 2-7, 0-700 entries over key
// domains small enough that most keys repeat, and for each tree random
// ranges (some inverted), the whole key space and single keys.
func TestTreeMatchesReference(t *testing.T) {
	const scripts = 3000
	for s := 0; s < scripts; s++ {
		r := rand.New(rand.NewSource(int64(s)))
		fanout, leafCap := 3+r.Intn(6), 2+r.Intn(6)
		n := r.Intn(701)
		if r.Intn(8) == 0 {
			n = 0
		}
		dom := 1 + r.Int63n(1+r.Int63n(96))
		entries := make([]Entry, n)
		for i := range entries {
			entries[i].Key = r.Int63n(dom) - dom/2
		}
		slices.SortFunc(entries, func(a, b Entry) int { return cmp.Compare(a.Key, b.Key) })
		for i := range entries {
			entries[i].Val = int64(i)
		}
		ranges := [][2]int64{{math.MinInt64, math.MaxInt64}, {1, 0}}
		for q := 0; q < 24; q++ {
			lo := r.Int63n(dom+4) - dom/2 - 2
			ranges = append(ranges, [2]int64{lo, lo + r.Int63n(dom/2+4) - 2}, [2]int64{lo, lo})
		}
		checkAgainstReference(t, fanout, leafCap, entries, r.Intn(1000), ranges)
	}
}
