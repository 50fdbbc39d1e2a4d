// Package btree implements a page-based B+-tree for the storage engine's
// clustered and non-clustered indexes (and BERD's auxiliary relations). The
// tree is an in-memory structure, but every node carries a physical disk
// page number and all operations report the exact sequence of pages they
// touch, so the simulator can charge real I/O and CPU costs for index
// traversals.
//
// Keys are int64 attribute values; duplicates are allowed (a non-clustered
// index on a non-unique attribute stores one entry per tuple). Values are
// caller-defined (tuple IDs, slot numbers, or processor IDs).
package btree

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Entry is one leaf-level (key, value) pair.
type Entry struct {
	Key int64
	Val int64
}

type node struct {
	page     int
	leaf     bool
	keys     []int64 // interior: len(children)-1 separators
	children []*node
	entries  []Entry
	next     *node // leaf sibling chain
}

// Tree is a B+-tree with configurable interior fanout and leaf capacity.
type Tree struct {
	fanout  int // max children per interior node
	leafCap int // max entries per leaf
	alloc   func() int
	root    *node
	height  int // 1 = just a leaf
	size    int
	pages   int
}

// New creates an empty tree. fanout and leafCap must each be at least 2 and
// at least 3 respectively for splits to make progress; alloc must return a
// fresh physical page number per call (the storage layer's disk allocator).
func New(fanout, leafCap int, alloc func() int) *Tree {
	if fanout < 3 {
		panic(fmt.Sprintf("btree: fanout %d too small (need >= 3)", fanout))
	}
	if leafCap < 2 {
		panic(fmt.Sprintf("btree: leaf capacity %d too small (need >= 2)", leafCap))
	}
	t := &Tree{fanout: fanout, leafCap: leafCap, alloc: alloc}
	t.root = t.newNode(true)
	t.height = 1
	return t
}

func (t *Tree) newNode(leaf bool) *node {
	t.pages++
	return &node{page: t.alloc(), leaf: leaf}
}

// Bulk builds the tree from entries, which must be sorted by key (stable
// order among duplicates is preserved). Bulk panics if the tree is not
// empty. Leaves are filled to capacity, matching a freshly loaded database.
//
// The tree takes entries over without copying: each leaf is a
// capacity-clamped run of the slice, so the caller must not modify it
// afterwards (reading is fine). A later Insert into a leaf reallocates
// that leaf rather than writing past its run into the next one.
func (t *Tree) Bulk(entries []Entry) {
	if t.size != 0 {
		panic("btree: Bulk on non-empty tree")
	}
	if !slices.IsSortedFunc(entries, func(a, b Entry) int { return cmp.Compare(a.Key, b.Key) }) {
		panic("btree: Bulk entries not sorted")
	}
	if len(entries) == 0 {
		return
	}
	// Reuse the pre-allocated empty root as the first leaf.
	leaves := []*node{t.root}
	t.root.leaf = true
	for i := 0; i < len(entries); i += t.leafCap {
		end := i + t.leafCap
		if end > len(entries) {
			end = len(entries)
		}
		var n *node
		if i == 0 {
			n = leaves[0]
		} else {
			n = t.newNode(true)
			leaves[len(leaves)-1].next = n
			leaves = append(leaves, n)
		}
		n.entries = entries[i:end:end]
	}
	t.size = len(entries)
	// Build interior levels bottom-up.
	level := leaves
	t.height = 1
	for len(level) > 1 {
		var parents []*node
		for i := 0; i < len(level); i += t.fanout {
			end := i + t.fanout
			if end > len(level) {
				end = len(level)
			}
			p := t.newNode(false)
			p.children = append(p.children, level[i:end]...)
			for j := i + 1; j < end; j++ {
				p.keys = append(p.keys, minKey(level[j]))
			}
			parents = append(parents, p)
		}
		level = parents
		t.height++
	}
	t.root = level[0]
}

func minKey(n *node) int64 {
	for !n.leaf {
		n = n.children[0]
	}
	return n.entries[0].Key
}

// Insert adds one entry, splitting nodes as needed. Duplicate keys are
// allowed; the new entry goes after existing equal keys.
func (t *Tree) Insert(e Entry) {
	mid, right := t.insert(t.root, e)
	if right != nil {
		newRoot := t.newNode(false)
		newRoot.keys = []int64{mid}
		newRoot.children = []*node{t.root, right}
		t.root = newRoot
		t.height++
	}
	t.size++
}

// insert descends to a leaf; on overflow the child splits and (separator,
// new right sibling) propagates upward.
func (t *Tree) insert(n *node, e Entry) (int64, *node) {
	if n.leaf {
		i := sort.Search(len(n.entries), func(i int) bool { return n.entries[i].Key > e.Key })
		n.entries = append(n.entries, Entry{})
		copy(n.entries[i+1:], n.entries[i:])
		n.entries[i] = e
		if len(n.entries) <= t.leafCap {
			return 0, nil
		}
		// Split leaf.
		mid := len(n.entries) / 2
		right := t.newNode(true)
		right.entries = append(right.entries, n.entries[mid:]...)
		n.entries = n.entries[:mid]
		right.next = n.next
		n.next = right
		return right.entries[0].Key, right
	}
	ci := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] > e.Key })
	sep, right := t.insert(n.children[ci], e)
	if right == nil {
		return 0, nil
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = sep
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = right
	if len(n.children) <= t.fanout {
		return 0, nil
	}
	// Split interior node.
	midIdx := len(n.children) / 2
	upKey := n.keys[midIdx-1]
	r := t.newNode(false)
	r.keys = append(r.keys, n.keys[midIdx:]...)
	r.children = append(r.children, n.children[midIdx:]...)
	n.keys = n.keys[:midIdx-1]
	n.children = n.children[:midIdx]
	return upKey, r
}

// Walk reports a lo <= key <= hi range search. It appends to pages the
// disk pages the search touches, in access order — the interior pages from
// the root down, then every leaf scanned left to right — and returns the
// extended slice; an empty result still reports the descent path. visit
// sees the qualifying entries in key order, one call per leaf holding any,
// as a run of that leaf's own storage: it must not modify or retain it.
func (t *Tree) Walk(lo, hi int64, pages []int, visit func([]Entry)) []int {
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
			break // a key past hi ends the scan
		}
	}
	return pages
}

// Len reports the number of entries.
func (t *Tree) Len() int { return t.size }

// Height reports the number of levels (1 = a single leaf).
func (t *Tree) Height() int { return t.height }

// Pages reports the number of pages (nodes) the tree occupies.
func (t *Tree) Pages() int { return t.pages }

// RootPage reports the root's physical page (typically cached by the buffer
// pool after first touch).
func (t *Tree) RootPage() int { return t.root.page }

// Validate checks structural invariants: key ordering within and across
// nodes, uniform leaf depth, fanout/capacity bounds, and size consistency.
// It returns a descriptive error for the first violation found.
func (t *Tree) Validate() error {
	count := 0
	leafDepth := -1
	var prevKey int64
	first := true
	var walk func(n *node, depth int, lo, hi *int64) error
	walk = func(n *node, depth int, lo, hi *int64) error {
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("btree: leaves at depths %d and %d", leafDepth, depth)
			}
			if len(n.entries) > t.leafCap {
				return fmt.Errorf("btree: leaf overflow: %d > %d", len(n.entries), t.leafCap)
			}
			for _, e := range n.entries {
				if !first && e.Key < prevKey {
					return fmt.Errorf("btree: keys out of order: %d after %d", e.Key, prevKey)
				}
				if lo != nil && e.Key < *lo {
					return fmt.Errorf("btree: key %d below separator %d", e.Key, *lo)
				}
				if hi != nil && e.Key > *hi {
					return fmt.Errorf("btree: key %d above separator %d", e.Key, *hi)
				}
				prevKey, first = e.Key, false
				count++
			}
			return nil
		}
		if len(n.children) > t.fanout {
			return fmt.Errorf("btree: interior overflow: %d > %d", len(n.children), t.fanout)
		}
		if len(n.keys) != len(n.children)-1 {
			return fmt.Errorf("btree: interior has %d keys for %d children", len(n.keys), len(n.children))
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = &n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = &n.keys[i]
			}
			if err := walk(c, depth+1, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 1, nil, nil); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("btree: size %d but found %d entries", t.size, count)
	}
	return nil
}
