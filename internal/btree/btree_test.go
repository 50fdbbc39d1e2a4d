package btree

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// counter returns a page allocator handing out 0, 1, 2, ...
func counter() func() int {
	n := 0
	return func() int {
		n++
		return n - 1
	}
}

func bulkTree(t *testing.T, fanout, leafCap int, entries []Entry) *Tree {
	t.Helper()
	tr := New(fanout, leafCap, counter())
	tr.Bulk(entries)
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid tree after Bulk: %v", err)
	}
	return tr
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
	tr := bulkTree(t, 5, 4, seqEntries(1000))
	if tr.Len() != 1000 {
		t.Fatalf("len = %d", tr.Len())
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
	tr := bulkTree(t, 5, 4, seqEntries(100))
	vals, pages := walk(tr, 5000, 5000)
	if len(vals) != 0 {
		t.Fatalf("missing key returned %v", vals)
	}
	if len(pages) == 0 {
		t.Fatal("even a miss must touch pages")
	}
}

func TestRangeInclusive(t *testing.T) {
	tr := bulkTree(t, 5, 4, seqEntries(100))
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
	tr := bulkTree(t, 4, 4, seqEntries(64))
	vals, pages := walk(tr, 0, 63)
	if len(vals) != 64 {
		t.Fatalf("full range returned %d", len(vals))
	}
	if leaves := len(pages) - (tr.Height() - 1); leaves != 16 {
		t.Fatalf("full range should touch all 16 leaves, got %d", leaves)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New(4, 4, counter())
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	vals, pages := walk(tr, 1, 1)
	if len(vals) != 0 || len(pages) != 1 || pages[0] != tr.RootPage() {
		t.Fatalf("empty tree search: vals=%v pages=%v", vals, pages)
	}
	if tr.Height() != 1 || tr.Pages() != 1 {
		t.Fatalf("empty tree height=%d pages=%d", tr.Height(), tr.Pages())
	}
}

func TestBulkEmptySlice(t *testing.T) {
	tr := New(4, 4, counter())
	tr.Bulk(nil)
	if tr.Len() != 0 {
		t.Fatal("Bulk(nil) should leave tree empty")
	}
}

func TestBulkUnsortedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted Bulk did not panic")
		}
	}()
	New(4, 4, counter()).Bulk([]Entry{{Key: 2}, {Key: 1}})
}

func TestBulkTwicePanics(t *testing.T) {
	tr := New(4, 4, counter())
	tr.Bulk(seqEntries(10))
	defer func() {
		if recover() == nil {
			t.Fatal("second Bulk did not panic")
		}
	}()
	tr.Bulk(seqEntries(10))
}

func TestDuplicateKeysAcrossLeaves(t *testing.T) {
	// Many duplicates force equal keys to span leaf boundaries and become
	// separator keys; Search must still find every one.
	var entries []Entry
	for i := 0; i < 50; i++ {
		entries = append(entries, Entry{Key: 7, Val: int64(i)})
	}
	tr := bulkTree(t, 4, 4, entries)
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

func TestInsertMaintainsInvariants(t *testing.T) {
	tr := New(4, 4, counter())
	r := rand.New(rand.NewSource(42))
	keys := r.Perm(500)
	for _, k := range keys {
		tr.Insert(Entry{Key: int64(k), Val: int64(k * 2)})
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid after inserts: %v", err)
	}
	if tr.Len() != 500 {
		t.Fatalf("len = %d", tr.Len())
	}
	for _, k := range keys {
		vals, _ := walk(tr, int64(k), int64(k))
		if len(vals) != 1 || vals[0] != int64(k*2) {
			t.Fatalf("Walk(%d) = %v", k, vals)
		}
	}
}

func TestInsertDuplicates(t *testing.T) {
	tr := New(4, 4, counter())
	for i := 0; i < 100; i++ {
		tr.Insert(Entry{Key: int64(i % 5), Val: int64(i)})
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 5; k++ {
		vals, _ := walk(tr, k, k)
		if len(vals) != 20 {
			t.Fatalf("Walk(%d) found %d, want 20", k, len(vals))
		}
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	tr := bulkTree(t, 10, 10, seqEntries(10000))
	// 10000 entries / 10 per leaf = 1000 leaves; fanout 10 => 4 levels + leaf.
	if tr.Height() != 4 {
		t.Fatalf("height = %d, want 4", tr.Height())
	}
}

func TestPageNumbersUnique(t *testing.T) {
	tr := bulkTree(t, 4, 4, seqEntries(200))
	seen := map[int]bool{}
	var walk func(n *node)
	var dup bool
	walk = func(n *node) {
		if seen[n.page] {
			dup = true
		}
		seen[n.page] = true
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(tr.root)
	if dup {
		t.Fatal("duplicate page numbers in tree")
	}
	if len(seen) != tr.Pages() {
		t.Fatalf("Pages() = %d but %d nodes found", tr.Pages(), len(seen))
	}
}

// Property: for random multisets of keys, Walk(lo,hi) on a bulk-loaded tree
// equals the naive filter, for both bulk-loaded and incrementally built trees.
func TestRangeMatchesNaiveProperty(t *testing.T) {
	check := func(rawKeys []uint16, loRaw, width uint16, useInsert bool) bool {
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
		tr := New(5, 4, counter())
		if useInsert {
			for _, e := range entries {
				tr.Insert(e)
			}
		} else {
			tr.Bulk(entries)
		}
		if err := tr.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
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

// Property: a bulk-loaded tree and an insert-built tree over the same data
// answer every point query identically.
func TestBulkVsInsertEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(400)
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(r.Intn(256))
		}
		sorted := append([]int64(nil), keys...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		entries := make([]Entry, n)
		for i, k := range sorted {
			entries[i] = Entry{Key: k, Val: k}
		}
		bulk := New(6, 5, counter())
		bulk.Bulk(entries)
		ins := New(6, 5, counter())
		for _, e := range entries {
			ins.Insert(e)
		}
		for k := int64(0); k < 256; k++ {
			a, _ := walk(bulk, k, k)
			b, _ := walk(ins, k, k)
			if len(a) != len(b) {
				t.Fatalf("trial %d key %d: bulk %d hits, insert %d hits", trial, k, len(a), len(b))
			}
		}
	}
}

// Bulk hands the caller's slice to the leaves without copying it. Inserts
// into the bulk-loaded tree must reallocate the leaf they land in, never
// write into the next leaf's run, so the tree keeps matching a sorted-slice
// reference and the loaded slice stays as it was.
func TestBulkThenInsertMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		entries := make([]Entry, r.Intn(300))
		for i := range entries {
			entries[i].Key = int64(r.Intn(64))
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
		for i := range entries {
			entries[i].Val = int64(i)
		}
		loaded := slices.Clone(entries)
		tr := New(4, 2+r.Intn(5), counter())
		tr.Bulk(entries)
		ref := slices.Clone(entries)
		for i := 0; i < 200; i++ {
			e := Entry{Key: int64(r.Intn(66)) - 1, Val: int64(len(entries) + i)}
			tr.Insert(e)
			// An insert lands after every equal key already present.
			at := sort.Search(len(ref), func(j int) bool { return ref[j].Key > e.Key })
			ref = slices.Insert(ref, at, e)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, _ := walk(tr, -1, 64)
		want := make([]int64, len(ref))
		for i, e := range ref {
			want[i] = e.Val
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: tree holds %v, reference %v", trial, got, want)
		}
		if !slices.Equal(entries, loaded) {
			t.Fatalf("trial %d: inserts overwrote the bulk-loaded slice", trial)
		}
	}
}

func TestNewRejectsTinyParameters(t *testing.T) {
	for _, tc := range []struct{ fanout, leafCap int }{{2, 4}, {4, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", tc.fanout, tc.leafCap)
				}
			}()
			New(tc.fanout, tc.leafCap, counter())
		}()
	}
}

func TestRootPageStable(t *testing.T) {
	tr := bulkTree(t, 4, 4, seqEntries(64))
	_, pages := walk(tr, 0, 0)
	if pages[0] != tr.RootPage() {
		t.Fatal("first page touched should be the root")
	}
}

// FuzzTreeRange bulk-loads sorted keys decoded from the fuzz input (one
// byte each, reduced into a domain of 1-32 values so keys repeat) and
// checks Walk against a sorted-slice reference: the values must be exactly
// the entries with lo <= key <= hi in load order, and the pages the
// interior path root-down, then the leaves scanned. The page reference
// follows from the bulk layout under a counting allocator: leaf l is page
// l, and each interior level takes the next run of pages, one per group of
// fanout children; the descent lands on the last leaf whose first key is
// below lo (or leaf 0), and the scan ends at the first leaf whose last key
// is above hi.
func FuzzTreeRange(f *testing.F) {
	f.Add([]byte{1, 2, 2, 2, 3, 5, 5, 8, 9, 9, 9, 9, 12}, uint8(16), uint8(0), uint8(1), uint8(3), uint8(4))
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

		tr := New(fanout, leafCap, counter())
		tr.Bulk(entries)
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
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
