// Package btree implements the page-based B+-trees of the storage engine's
// clustered and non-clustered indexes (and BERD's auxiliary relations).
// Every tree is bulk-loaded once and then only searched, so it is laid out
// flat: the sorted entries, the first key of each leaf and the page
// numbers of each level, with no node structs. Every page still has a
// physical disk page number, and a search reports the exact sequence of
// pages it touches, so the simulator can charge real I/O and CPU costs for
// index traversals.
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

// Tree is a bulk-loaded, read-only B+-tree. Leaves are filled to capacity,
// matching a freshly loaded database: leaf l holds entries
// [l*leafCap, (l+1)*leafCap). Each node of an interior level covers fanout
// nodes of the level below, left to right. The pages form one run from
// base in build order: the leaves, then each interior level bottom-up, so
// the root is the last page.
type Tree struct {
	entries []Entry
	firsts  []int64 // firsts[l-1] is leaf l's first key, the separator before it
	leafCap int
	levels  []level // the interior levels, bottom-up
	base    int     // leaf 0's page
	pages   int
}

// level places one interior level: its first page, as an offset from the
// tree's base, and the number of leaves one of its nodes covers.
type level struct{ offset, span int }

// Bulk builds a tree over entries, which must be sorted by key (the order
// among duplicates is kept). The tree takes entries over without copying,
// so the caller must not modify them afterwards (reading is fine). Its
// pages come from one allocRun(pages) call, which returns the first page
// of a run of that many fresh pages (the storage layer's disk allocator).
// An empty tree is a single empty leaf. fanout must be at least 3 and
// leafCap at least 2.
func Bulk(fanout, leafCap int, entries []Entry, allocRun func(pages int) int) *Tree {
	if fanout < 3 {
		panic(fmt.Sprintf("btree: fanout %d too small (need >= 3)", fanout))
	}
	if leafCap < 2 {
		panic(fmt.Sprintf("btree: leaf capacity %d too small (need >= 2)", leafCap))
	}
	if !slices.IsSortedFunc(entries, func(a, b Entry) int { return cmp.Compare(a.Key, b.Key) }) {
		panic("btree: Bulk entries not sorted")
	}
	leaves := max(1, (len(entries)+leafCap-1)/leafCap)
	t := &Tree{entries: entries, firsts: make([]int64, leaves-1), leafCap: leafCap, pages: leaves}
	for l := range t.firsts {
		t.firsts[l] = entries[(l+1)*leafCap].Key
	}
	for size, span := leaves, fanout; size > 1; span *= fanout {
		size = (size + fanout - 1) / fanout
		t.levels = append(t.levels, level{offset: t.pages, span: span})
		t.pages += size
	}
	t.base = allocRun(t.pages)
	return t
}

// Rebase returns a tree over t's entries on a fresh run of pages from
// one allocRun(t.Pages()) call: the same shape, sharing t's entries and
// separators, which neither tree modifies.
func (t *Tree) Rebase(allocRun func(pages int) int) *Tree {
	c := *t
	c.base = allocRun(t.pages)
	return &c
}

// Walk reports a lo <= key <= hi range search. It appends to pages the
// disk pages the search touches, in access order — the interior pages from
// the root down, then every leaf scanned left to right — and returns the
// extended slice; an empty result still reports the descent path. visit
// sees the qualifying entries in key order, one call per leaf holding any,
// as a run of that leaf's own storage: it must not modify or retain it.
func (t *Tree) Walk(lo, hi int64, pages []int, visit func([]Entry)) []int {
	// Separators are inclusive on both sides for duplicate keys, so the
	// descent lands on the last leaf whose first key is below lo (or leaf
	// 0), and each interior node on its path is the one covering that leaf.
	start, _ := slices.BinarySearch(t.firsts, lo)
	for k := len(t.levels) - 1; k >= 0; k-- {
		pages = append(pages, t.base+t.levels[k].offset+start/t.levels[k].span)
	}
	for l := start; ; l++ {
		pages = append(pages, t.base+l)
		end := min((l+1)*t.leafCap, len(t.entries))
		es := t.entries[l*t.leafCap : end : end]
		i := sort.Search(len(es), func(i int) bool { return es[i].Key >= lo })
		j := i + sort.Search(len(es)-i, func(k int) bool { return es[i+k].Key > hi })
		if j > i {
			visit(es[i:j])
		}
		if l == len(t.firsts) || es[len(es)-1].Key > hi {
			return pages // the last leaf, or a key past hi, ends the scan
		}
	}
}

// Height reports the number of levels (1 = a single leaf).
func (t *Tree) Height() int { return len(t.levels) + 1 }

// Pages reports the number of pages the tree occupies.
func (t *Tree) Pages() int { return t.pages }

// RootPage reports the root's physical page (typically cached by the buffer
// pool after first touch).
func (t *Tree) RootPage() int { return t.base + t.pages - 1 }
