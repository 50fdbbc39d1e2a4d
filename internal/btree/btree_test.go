package btree

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// bulkTree bulk-loads entries onto pages counted from 0.
func bulkTree(fanout, leafCap int, entries []Entry) *Tree {
	return Bulk(fanout, leafCap, entries, (&pageCounter{}).AllocRun)
}

// walk runs Walk over [lo, hi] and returns the qualifying values in order
// and the pages touched.
func walk(tr *Tree, lo, hi int64) (vals []int64, pages []int) {
	pages = tr.Walk(lo, hi, nil, func(run []Entry) {
		for _, e := range run {
			vals = append(vals, e.Val)
		}
	})
	return vals, pages
}

func seqEntries(n int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{Key: int64(i), Val: int64(i * 10)}
	}
	return out
}

func TestBulkAndSearch(t *testing.T) {
	tr := bulkTree(5, 4, seqEntries(1000))
	if all, _ := walk(tr, math.MinInt64, math.MaxInt64); len(all) != 1000 {
		t.Fatalf("full range holds %d entries, want 1000", len(all))
	}
	for _, k := range []int64{0, 1, 499, 998, 999} {
		vals, pages := walk(tr, k, k)
		if len(vals) != 1 || vals[0] != k*10 {
			t.Fatalf("Walk(%d, %d) = %v", k, k, vals)
		}
		// The descent reads Height()-1 interior pages, then the leaves.
		if leaves := len(pages) - (tr.Height() - 1); leaves < 1 || leaves > 2 {
			t.Fatalf("Walk(%d, %d) visited %d leaves", k, k, leaves)
		}
	}
}

func TestSearchMissingKey(t *testing.T) {
	tr := bulkTree(5, 4, seqEntries(100))
	vals, pages := walk(tr, 5000, 5000)
	if len(vals) != 0 {
		t.Fatalf("missing key returned %v", vals)
	}
	if len(pages) == 0 {
		t.Fatal("even a miss must touch pages")
	}
}

func TestRangeInclusive(t *testing.T) {
	tr := bulkTree(5, 4, seqEntries(100))
	vals, _ := walk(tr, 10, 19)
	if len(vals) != 10 {
		t.Fatalf("range [10,19] returned %d values", len(vals))
	}
	for i, v := range vals {
		if v != int64((10+i)*10) {
			t.Fatalf("vals = %v", vals)
		}
	}
}

func TestRangeSpanningLeaves(t *testing.T) {
	tr := bulkTree(4, 4, seqEntries(64))
	vals, pages := walk(tr, 0, 63)
	if len(vals) != 64 {
		t.Fatalf("full range returned %d", len(vals))
	}
	if leaves := len(pages) - (tr.Height() - 1); leaves != 16 {
		t.Fatalf("full range should touch all 16 leaves, got %d", leaves)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := bulkTree(4, 4, nil)
	vals, pages := walk(tr, 1, 1)
	if len(vals) != 0 || len(pages) != 1 || pages[0] != tr.RootPage() {
		t.Fatalf("empty tree search: vals=%v pages=%v", vals, pages)
	}
	if tr.Height() != 1 || tr.Pages() != 1 {
		t.Fatalf("empty tree height=%d pages=%d", tr.Height(), tr.Pages())
	}
}

func TestBulkEmptySlice(t *testing.T) {
	tr := bulkTree(4, 4, []Entry{})
	if vals, _ := walk(tr, math.MinInt64, math.MaxInt64); len(vals) != 0 {
		t.Fatalf("Bulk of no entries holds %v", vals)
	}
}

func TestBulkUnsortedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted Bulk did not panic")
		}
	}()
	bulkTree(4, 4, []Entry{{Key: 2}, {Key: 1}})
}

func TestDuplicateKeysAcrossLeaves(t *testing.T) {
	// Many duplicates force equal keys to span leaf boundaries and become
	// separator keys; Search must still find every one.
	var entries []Entry
	for i := 0; i < 50; i++ {
		entries = append(entries, Entry{Key: 7, Val: int64(i)})
	}
	tr := bulkTree(4, 4, entries)
	vals, _ := walk(tr, 7, 7)
	if len(vals) != 50 {
		t.Fatalf("Walk(7, 7) found %d of 50 duplicates", len(vals))
	}
	for i, v := range vals {
		if v != int64(i) {
			t.Fatalf("duplicate order broken: %v", vals)
		}
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	tr := bulkTree(10, 10, seqEntries(10000))
	// 10000 entries / 10 per leaf = 1000 leaves; fanout 10 => 4 levels + leaf.
	if tr.Height() != 4 {
		t.Fatalf("height = %d, want 4", tr.Height())
	}
}

// A tree takes its pages as one run, from a single allocator call, and
// every page of the run is a node: the searches for every key together
// touch each page of the run, none outside it, and no search touches a
// page twice.
func TestPageNumbersUnique(t *testing.T) {
	const base = 10
	var runs []int
	tr := Bulk(4, 4, seqEntries(200), func(n int) int {
		runs = append(runs, n)
		return base
	})
	if len(runs) != 1 || runs[0] != tr.Pages() {
		t.Fatalf("allocated runs %v for a tree of %d pages, want one run", runs, tr.Pages())
	}
	seen := map[int]bool{}
	for k := int64(0); k < 200; k++ {
		_, pages := walk(tr, k, k)
		trace := map[int]bool{}
		for _, p := range pages {
			if trace[p] {
				t.Fatalf("Walk(%d, %d) touched page %d twice: %v", k, k, p, pages)
			}
			if p < base || p >= base+tr.Pages() {
				t.Fatalf("Walk(%d, %d) touched page %d outside the run [%d, %d)", k, k, p, base, base+tr.Pages())
			}
			trace[p], seen[p] = true, true
		}
	}
	if len(seen) != tr.Pages() {
		t.Fatalf("searches touched %d of the tree's %d pages", len(seen), tr.Pages())
	}
}

// Property: for random multisets of keys, Walk(lo,hi) on a bulk-loaded tree
// equals the naive filter.
func TestRangeMatchesNaiveProperty(t *testing.T) {
	check := func(rawKeys []uint16, loRaw, width uint16) bool {
		if len(rawKeys) == 0 {
			rawKeys = []uint16{42}
		}
		if len(rawKeys) > 300 {
			rawKeys = rawKeys[:300]
		}
		keys := make([]int64, len(rawKeys))
		for i, k := range rawKeys {
			keys[i] = int64(k % 512)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		entries := make([]Entry, len(keys))
		for i, k := range keys {
			entries[i] = Entry{Key: k, Val: int64(i)}
		}
		tr := bulkTree(5, 4, entries)
		lo := int64(loRaw % 512)
		hi := lo + int64(width%64)
		got, _ := walk(tr, lo, hi)
		want := 0
		for _, k := range keys {
			if k >= lo && k <= hi {
				want++
			}
		}
		return len(got) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsTinyParameters(t *testing.T) {
	for _, tc := range []struct{ fanout, leafCap int }{{2, 4}, {4, 1}} {
		func() {
			allocated := false
			defer func() {
				if recover() == nil || allocated {
					t.Errorf("Bulk(%d, %d) did not panic before allocating", tc.fanout, tc.leafCap)
				}
			}()
			Bulk(tc.fanout, tc.leafCap, seqEntries(10), func(n int) int {
				allocated = true
				return 0
			})
		}()
	}
}

func TestRootPageStable(t *testing.T) {
	tr := bulkTree(4, 4, seqEntries(64))
	_, pages := walk(tr, 0, 0)
	if pages[0] != tr.RootPage() {
		t.Fatal("first page touched should be the root")
	}
}

// FuzzTreeRange bulk-loads sorted keys decoded from the fuzz input (one
// byte each, reduced into a domain of 1-32 values so keys repeat). It
// holds the tree to referenceTree: the same pages, shape, page trace and
// visited runs. It also checks Walk against a sorted-slice reference and
// an arithmetic model of the layout: the values must be exactly
// the entries with lo <= key <= hi in load order, and the pages the
// interior path root-down, then the leaves scanned. The page reference
// follows from the bulk layout under a counting allocator: leaf l is page
// l, and each interior level takes the next run of pages, one per group of
// fanout children; the descent lands on the last leaf whose first key is
// below lo (or leaf 0), and the scan ends at the first leaf whose last key
// is above hi.
func FuzzTreeRange(f *testing.F) {
	f.Add([]byte{1, 2, 2, 2, 3, 5, 5, 8, 9, 9, 9, 9, 12}, uint8(16), uint8(0), uint8(1), uint8(3), uint8(4))
	// lo is leaf 4's first key and above leaf 3's last: the descent still
	// lands on leaf 3.
	f.Add([]byte{1, 2, 2, 2, 3, 5, 5, 8, 9, 9, 9, 9, 12}, uint8(16), uint8(0), uint8(1), uint8(13), uint8(4))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, uint8(0), uint8(0), uint8(0), uint8(0), uint8(1))
	f.Add([]byte{}, uint8(3), uint8(1), uint8(1), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, domain, fanoutRaw, leafCapRaw, loRaw, width uint8) {
		const maxEntries = 600
		if len(data) > maxEntries {
			data = data[:maxEntries]
		}
		dom := 1 + int64(domain)%32
		fanout := 3 + int(fanoutRaw)%6
		leafCap := 2 + int(leafCapRaw)%6
		entries := make([]Entry, len(data))
		for i, b := range data {
			entries[i].Key = int64(b) % dom
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
		for i := range entries {
			entries[i].Val = int64(i)
		}
		// The range may start below the domain, end above it, or be
		// inverted (hi = lo-1 or lo-2).
		lo := int64(loRaw)%(dom+2) - 1
		hi := lo + int64(width)%(dom+4) - 2

		checkAgainstReference(t, fanout, leafCap, entries, 0, [][2]int64{{lo, hi}})
		tr := bulkTree(fanout, leafCap, entries)
		gotVals, gotPages := walk(tr, lo, hi)

		var wantVals []int64
		for _, e := range entries {
			if e.Key >= lo && e.Key <= hi {
				wantVals = append(wantVals, e.Val)
			}
		}
		wantPages := []int{0}
		if n := len(entries); n > 0 {
			leaves := (n + leafCap - 1) / leafCap
			start := 0
			for l := 1; l < leaves; l++ {
				if entries[l*leafCap].Key < lo {
					start = l
				}
			}
			// bases[k] is level k's first page (level 0 = the leaves);
			// spans[k] is how many leaves one level-k node covers.
			bases, spans := []int{0}, []int{1}
			for size := leaves; size > 1; size = (size + fanout - 1) / fanout {
				bases = append(bases, bases[len(bases)-1]+size)
				spans = append(spans, spans[len(spans)-1]*fanout)
			}
			wantPages = wantPages[:0]
			for k := len(bases) - 1; k >= 1; k-- {
				wantPages = append(wantPages, bases[k]+start/spans[k])
			}
			for l := start; l < leaves; l++ {
				wantPages = append(wantPages, l)
				if last := min((l+1)*leafCap, n) - 1; entries[last].Key > hi {
					break
				}
			}
		}
		if !slices.Equal(gotVals, wantVals) {
			t.Fatalf("Walk(%d, %d) values %v, want %v", lo, hi, gotVals, wantVals)
		}
		if !slices.Equal(gotPages, wantPages) {
			t.Fatalf("Walk(%d, %d) pages %v, want %v (height %d)", lo, hi, gotPages, wantPages, tr.Height())
		}
	})
}
