package storage

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/btree"
)

func smallLayout() Layout { return Layout{TuplesPerPage: 4, IndexFanout: 4, IndexLeafCap: 4} }

// mustAcc unwraps an (Access, error) pair in tests that expect success.
func mustAcc(acc Access, err error) Access {
	if err != nil {
		panic(err)
	}
	return acc
}

// resolved resolves an access's qualifying slots to tuples in the image, in
// access order (nil when none qualified).
func resolved(acc Access) []Tuple {
	var out []Tuple
	for i := 0; i < acc.N; i++ {
		out = append(out, *acc.Tuple(i))
	}
	return out
}

// dataPages lists an access's data page requests in order (nil when none).
func dataPages(acc Access) []int {
	var out []int
	for i := 0; i < acc.NumDataPages(); i++ {
		out = append(out, acc.DataPage(i))
	}
	return out
}

// allRows lists the rows 0..n-1 of a relation of n tuples.
func allRows(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

// byKey lists f's rows sorted by attr, equal values in slot order: the
// order AddIndex takes for a non-clustered index on attr.
func byKey(f *Fragment, attr int) []int32 {
	rows := slices.Clone(f.rows)
	slices.SortStableFunc(rows, func(a, b int32) int { return cmp.Compare(f.src[a].Attrs[attr], f.src[b].Attrs[attr]) })
	return rows
}

// byValue returns entries sorted stably by value, as BuildAux takes them.
func byValue(entries []AuxEntry) []AuxEntry {
	out := slices.Clone(entries)
	slices.SortStableFunc(out, func(a, b AuxEntry) int { return cmp.Compare(a.Value, b.Value) })
	return out
}

// buildTestFragment creates a fragment over tuples with unique2 = 0..n-1 and
// unique1 a fixed scrambled permutation, clustered on unique2, indexed on
// both attributes.
func buildTestFragment(t *testing.T, n int) (*Fragment, *Allocator) {
	t.Helper()
	r := GenerateWisconsin(GenSpec{Cardinality: n, Seed: 5})
	alloc := NewAllocator(10000)
	f := BuildFragment(3, r.Tuples, allRows(n), make([]int32, n), Unique2, smallLayout(), alloc)
	f.AddIndex(Unique2, nil, alloc)
	f.AddIndex(Unique1, byKey(f, Unique1), alloc)
	return f, alloc
}

func TestFragmentLayoutContiguous(t *testing.T) {
	f, alloc := buildTestFragment(t, 100)
	if f.NumTuples() != 100 {
		t.Fatalf("tuples = %d", f.NumTuples())
	}
	if f.dataPages != 25 { // 100/4
		t.Fatalf("data pages = %d", f.dataPages)
	}
	if f.DataPageOfSlot(0) != 0 || f.DataPageOfSlot(4) != 1 || f.DataPageOfSlot(99) != 24 {
		t.Fatal("slot->page mapping wrong")
	}
	if alloc.Used() <= 25 {
		t.Fatal("index pages not allocated after data pages")
	}
}

func TestSearchClusteredRange(t *testing.T) {
	f, _ := buildTestFragment(t, 100)
	acc := mustAcc(f.SearchClustered(10, 19, nil))
	if acc.N != 10 || acc.First != 10 || acc.Slots != nil {
		t.Fatalf("matched slots [%d, +%d) listed %v, want the run [10, +10)", acc.First, acc.N, acc.Slots)
	}
	for i, tup := range resolved(acc) {
		if tup.Attrs[Unique2] != int64(10+i) {
			t.Fatalf("tuple %d has unique2=%d", i, tup.Attrs[Unique2])
		}
	}
	// Slots 10..19 span pages 2,3,4 contiguously, no repeats.
	if got, want := dataPages(acc), []int{2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("data pages = %v, want %v", got, want)
	}
	if len(acc.IndexPages) == 0 {
		t.Fatal("clustered search must touch index pages")
	}
}

func TestSearchClusteredEmptyRange(t *testing.T) {
	f, _ := buildTestFragment(t, 100)
	acc := mustAcc(f.SearchClustered(5000, 6000, nil))
	if acc.N != 0 || acc.NumDataPages() != 0 {
		t.Fatal("out-of-range search returned tuples")
	}
	if len(acc.IndexPages) == 0 {
		t.Fatal("even a miss descends the index")
	}
}

func TestSearchNonClusteredFetchesPerTuple(t *testing.T) {
	f, _ := buildTestFragment(t, 100)
	acc := mustAcc(f.SearchNonClustered(Unique1, 0, 9, nil))
	if acc.N != 10 || len(acc.Slots) != 10 {
		t.Fatalf("matched %d tuples in %d slots", acc.N, len(acc.Slots))
	}
	if acc.NumDataPages() != 10 {
		t.Fatalf("non-clustered access should fetch one page per tuple, got %d", acc.NumDataPages())
	}
	for i, tup := range resolved(acc) {
		if tup.Attrs[Unique1] != int64(i) {
			t.Fatalf("tuples not in index order: %v", tup.Attrs[Unique1])
		}
	}
}

func TestSearchNonClusteredSingleTuple(t *testing.T) {
	f, _ := buildTestFragment(t, 100)
	acc := mustAcc(f.SearchNonClustered(Unique1, 42, 42, nil))
	if acc.N != 1 || acc.Tuple(0).Attrs[Unique1] != 42 {
		t.Fatalf("equality search returned %v", resolved(acc))
	}
}

func TestFetchTIDs(t *testing.T) {
	f, _ := buildTestFragment(t, 100)
	acc := mustAcc(f.FetchTIDs([]int64{5, 50, 95}, nil))
	if acc.N != 3 || acc.NumDataPages() != 3 {
		t.Fatalf("fetched %d tuples, %d pages", acc.N, acc.NumDataPages())
	}
	if len(acc.IndexPages) != 0 {
		t.Fatal("TID fetch must not touch indexes")
	}
	for i, want := range []int64{5, 50, 95} {
		if acc.Tuple(i).TID != want {
			t.Fatalf("tuple %d TID = %d", i, acc.Tuple(i).TID)
		}
	}
}

func TestFetchForeignTIDErrors(t *testing.T) {
	f, _ := buildTestFragment(t, 10)
	if _, err := f.FetchTIDs([]int64{9999}, nil); err == nil {
		t.Fatal("foreign TID did not error")
	}
}

func TestHasTID(t *testing.T) {
	f, _ := buildTestFragment(t, 10)
	if !f.HasTID(3) || f.HasTID(100) {
		t.Fatal("HasTID wrong")
	}
}

func TestEmptyFragment(t *testing.T) {
	alloc := NewAllocator(100)
	f := BuildFragment(0, nil, nil, nil, Unique2, smallLayout(), alloc)
	f.AddIndex(Unique2, nil, alloc)
	if f.NumTuples() != 0 || f.dataPages != 0 {
		t.Fatal("empty fragment has tuples/pages")
	}
	acc := mustAcc(f.SearchClustered(0, 10, nil))
	if acc.N != 0 || acc.NumDataPages() != 0 {
		t.Fatal("empty fragment returned tuples")
	}
}

func TestDuplicateIndexPanics(t *testing.T) {
	f, alloc := buildTestFragment(t, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate index did not panic")
		}
	}()
	f.AddIndex(Unique1, byKey(f, Unique1), alloc)
}

func TestMissingIndexErrors(t *testing.T) {
	alloc := NewAllocator(100)
	f := BuildFragment(0, nil, nil, nil, Unique2, smallLayout(), alloc)
	if _, err := f.SearchClustered(0, 1, nil); err == nil {
		t.Fatal("missing index did not error")
	}
}

func TestAllocatorRuns(t *testing.T) {
	a := NewAllocator(10)
	if start := a.AllocRun(4); start != 0 {
		t.Fatalf("run start = %d", start)
	}
	if p := a.AllocRun(1); p != 4 {
		t.Fatalf("next page = %d", p)
	}
	if a.Used() != 5 {
		t.Fatalf("used = %d", a.Used())
	}
}

func TestAllocatorExhaustionPanics(t *testing.T) {
	a := NewAllocator(2)
	a.AllocRun(2)
	defer func() {
		if recover() == nil {
			t.Fatal("exhausted allocator did not panic")
		}
	}()
	a.AllocRun(1)
}

func TestAuxFragmentLookup(t *testing.T) {
	alloc := NewAllocator(1000)
	entries := []AuxEntry{
		{Value: 10, TID: 100, Proc: 1},
		{Value: 20, TID: 200, Proc: 2},
		{Value: 30, TID: 300, Proc: 3},
		{Value: 25, TID: 250, Proc: 2},
	}
	aux := BuildAux(7, byValue(entries), smallLayout(), alloc)
	if _, n, _ := aux.Lookup(math.MinInt64, math.MaxInt64, nil); n != 4 {
		t.Fatalf("entries = %d", n)
	}
	byProc, n, pages := aux.Lookup(15, 27, nil)
	if want := [][]int64{nil, nil, {200, 250}}; n != 2 || !reflect.DeepEqual(byProc, want) {
		t.Fatalf("lookup = %d entries %v, want 2 %v", n, byProc, want)
	}
	if len(pages) == 0 {
		t.Fatal("lookup touched no pages")
	}
}

func TestAuxPackRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		proc int
		tid  int64
	}{{0, 0}, {31, 99999}, {65535, 1<<47 - 1}} {
		p, tid := unpackAux(packAux(tc.proc, tc.tid))
		if p != tc.proc || tid != tc.tid {
			t.Fatalf("round trip (%d,%d) -> (%d,%d)", tc.proc, tc.tid, p, tid)
		}
	}
}

func TestAuxPackRejectsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversize proc did not panic")
		}
	}()
	packAux(1<<16, 0)
}

// mustPanic runs build and fails unless it panics with a message
// containing msg.
func mustPanic(t *testing.T, msg string, build func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), msg) {
			t.Fatalf("panic %v, want one containing %q", r, msg)
		}
	}()
	build()
}

// The storage builders take their input in order and check it: rows out
// of clustered order, a non-clustered key order that is not the
// fragment's rows by value and slot, and auxiliary entries out of value
// order all panic.
func TestBuildersRejectUnorderedInput(t *testing.T) {
	r := GenerateWisconsin(GenSpec{Cardinality: 50, Seed: 2})
	rev := slices.Clone(allRows(50))
	slices.Reverse(rev)
	alloc := NewAllocator(1 << 20)
	mustPanic(t, "rows not sorted by unique2", func() {
		BuildFragment(0, r.Tuples, rev, make([]int32, 50), Unique2, smallLayout(), alloc)
	})

	f := BuildFragment(0, r.Tuples, allRows(40), make([]int32, 50), Unique2, smallLayout(), alloc)
	keys := byKey(f, Unique1)
	mustPanic(t, "takes its order from the row list", func() { f.AddIndex(Unique2, keys, alloc) })
	mustPanic(t, "over 39 rows", func() { f.AddIndex(Unique1, keys[1:], alloc) })
	swapped := slices.Clone(keys)
	swapped[3], swapped[4] = swapped[4], swapped[3]
	mustPanic(t, "not sorted by value and slot", func() { f.AddIndex(Unique1, swapped, alloc) })
	foreign := slices.Clone(keys)
	foreign[7] = 45 // a row of the relation outside the fragment
	mustPanic(t, "not the fragment's", func() { f.AddIndex(Unique1, foreign, alloc) })
	// Equal keys must come in slot order: on an attribute with duplicates,
	// the reverse of each run of equal values is rejected.
	twos := byKey(f, Two)
	for lo := 0; lo < len(twos); {
		hi := lo
		for hi < len(twos) && r.Tuples[twos[hi]].Attrs[Two] == r.Tuples[twos[lo]].Attrs[Two] {
			hi++
		}
		slices.Reverse(twos[lo:hi])
		lo = hi
	}
	mustPanic(t, "not sorted by value and slot", func() { f.AddIndex(Two, twos, alloc) })
	f.AddIndex(Two, byKey(f, Two), alloc)

	mustPanic(t, "not sorted", func() {
		BuildAux(0, []AuxEntry{{Value: 2, TID: 0}, {Value: 1, TID: 1}}, smallLayout(), alloc)
	})
}

// A replica shares its fragment's rows, TID index and index entries and
// answers every search alike, on pages of its own allocator laid out in
// the same order: data pages, then each index in the order added.
func TestReplicaSharesEntries(t *testing.T) {
	f, _ := buildTestFragment(t, 100)
	alloc := NewAllocator(1 << 20)
	alloc.AllocRun(1000)
	rep := f.Replica(alloc)
	if &rep.rows[0] != &f.rows[0] || &rep.tidSlot[0] != &f.tidSlot[0] {
		t.Fatal("replica does not share the row list and TID index")
	}
	if rep.DataPageOfSlot(0) != 1000 || rep.FootprintPages() != f.FootprintPages() || alloc.Used() != 1000+f.FootprintPages() {
		t.Fatalf("replica data at page %d, footprint %d, allocator at %d; want 1000, %d, %d",
			rep.DataPageOfSlot(0), rep.FootprintPages(), alloc.Used(), f.FootprintPages(), 1000+f.FootprintPages())
	}
	if rep.Index(Unique2).Tree.RootPage() >= rep.Index(Unique1).Tree.RootPage() {
		t.Fatal("replica's indexes out of the order they were added")
	}
	for _, attr := range []int{Unique2, Unique1} {
		walk := func(f *Fragment) (pages []int, runs [][]btree.Entry) {
			pages = f.Index(attr).Tree.Walk(20, 60, nil, func(run []btree.Entry) { runs = append(runs, run) })
			return pages, runs
		}
		fp, fr := walk(f)
		rp, rr := walk(rep)
		if !reflect.DeepEqual(fr, rr) || &fr[0][0] != &rr[0][0] {
			t.Fatalf("%s: replica walk differs from its fragment's, or copies its entries", AttrName(attr))
		}
		for i := range fp {
			if rp[i]-fp[i] != rep.Index(attr).Tree.RootPage()-f.Index(attr).Tree.RootPage() {
				t.Fatalf("%s: replica pages %v, fragment %v: not the same shape", AttrName(attr), rp, fp)
			}
		}
	}
}

func TestScan(t *testing.T) {
	f, _ := buildTestFragment(t, 100)
	acc := f.Scan(Ten, 3, 3, nil)
	pages := dataPages(acc)
	if len(pages) != f.dataPages {
		t.Fatalf("scan touched %d pages, want all %d", len(pages), f.dataPages)
	}
	want := 0
	for slot := 0; slot < f.NumTuples(); slot++ {
		if f.Tuple(slot).Attrs[Ten] == 3 {
			want++
		}
	}
	if acc.N != want {
		t.Fatalf("scan matched %d tuples, want %d", acc.N, want)
	}
	for _, tup := range resolved(acc) {
		if tup.Attrs[Ten] != 3 {
			t.Fatalf("scan matched ten=%d", tup.Attrs[Ten])
		}
	}
	if len(acc.IndexPages) != 0 {
		t.Fatal("scan must not touch indexes")
	}
	// Pages must be sequential for the disk's sequential-access detection.
	for i := 1; i < len(pages); i++ {
		if pages[i] != pages[i-1]+1 {
			t.Fatal("scan pages not sequential")
		}
	}
}

func TestScanEmptyFragment(t *testing.T) {
	alloc := NewAllocator(100)
	f := BuildFragment(0, nil, nil, nil, Unique2, smallLayout(), alloc)
	acc := f.Scan(Ten, 0, 9, nil)
	if acc.N != 0 || acc.NumDataPages() != 0 {
		t.Fatal("empty fragment scan returned something")
	}
}

// FuzzFragmentBuild checks fragment, index and auxiliary construction on
// tuples decoded from the fuzz input: three bytes per tuple give its
// clustered key (unique2), non-clustered key (unique1) and auxiliary value,
// all reduced into a domain of 1-8 values so keys repeat. A tuple whose
// unique1 byte has its high bit set stays out of the fragment and goes to
// a second one over the same relation, sharing the TID index as the
// fragments of one layout do. The builders get their input in order, as
// the layout's scatters give it: the rows and auxiliary entries sorted
// stably, and the non-clustered index's rows in slot order sorted stably
// by unique1. The slot order must equal a sort.SliceStable reference, and
// every access method must return exactly a brute-force filter of that
// reference, in its order. A TID fetch, and a non-clustered
// index entry, must find a TID exactly when a map oracle of the slots
// holds it: TIDs of the other fragment, negative and out-of-range TIDs
// give the "not in fragment" and "foreign TID" errors.
func FuzzFragmentBuild(f *testing.F) {
	f.Add([]byte{3, 1, 2, 0, 1, 2, 3, 0, 0, 1, 1, 1}, uint8(4), uint8(1), uint8(2))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7}, uint8(0), uint8(0), uint8(0))
	f.Add([]byte{3, 0x81, 2, 0, 1, 2, 3, 0x80, 0, 1, 0x91, 1}, uint8(4), uint8(0), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, domain, lo, width uint8) {
		const maxTuples = 400
		dom := 1 + int64(domain)%8
		n := len(data) / 3
		if n > maxTuples {
			n = maxTuples
		}
		tuples := make([]Tuple, n)
		entries := make([]AuxEntry, n)
		var rows, otherRows []int32
		for i := range tuples {
			b := data[3*i : 3*i+3]
			tuples[i].TID = int64(i)
			tuples[i].Attrs[Unique2] = int64(b[0]) % dom
			tuples[i].Attrs[Unique1] = int64(b[1]) % dom
			entries[i] = AuxEntry{Value: int64(b[2]) % dom, TID: int64(i), Proc: int(b[2] >> 4)}
			if b[1]&0x80 == 0 {
				rows = append(rows, int32(i))
			} else {
				otherRows = append(otherRows, int32(i))
			}
		}
		// The query range may start below the domain and end above it.
		qlo := int64(lo)%(dom+2) - 1
		qhi := qlo + int64(width)%(dom+2)

		// The builders take rows in clustered order, as the layout's
		// scatter gives them.
		byUnique2 := func(a, b int32) int { return cmp.Compare(tuples[a].Attrs[Unique2], tuples[b].Attrs[Unique2]) }
		slices.SortStableFunc(rows, byUnique2)
		slices.SortStableFunc(otherRows, byUnique2)

		layout := smallLayout()
		alloc := NewAllocator(100000)
		tidSlot := make([]int32, n)
		frag := BuildFragment(0, tuples, rows, tidSlot, Unique2, layout, alloc)
		frag.AddIndex(Unique2, nil, alloc)
		frag.AddIndex(Unique1, byKey(frag, Unique1), alloc)
		other := BuildFragment(1, tuples, otherRows, tidSlot, Unique2, layout, alloc)

		var slots []Tuple
		for _, r := range rows {
			slots = append(slots, tuples[r])
		}
		sort.SliceStable(slots, func(i, j int) bool { return slots[i].Attrs[Unique2] < slots[j].Attrs[Unique2] })
		var got []Tuple
		for slot := 0; slot < frag.NumTuples(); slot++ {
			got = append(got, *frag.Tuple(slot))
		}
		if !reflect.DeepEqual(got, slots) {
			t.Fatalf("slot order differs from the stable reference")
		}
		pageOf := func(slot int) int { return frag.DataPageOfSlot(slot) }
		// Every access below fills the same buffers, which each call must
		// reuse without leaking an earlier call's pages, slots or TIDs.
		var buf Buffers

		// Clustered: qualifying slots in slot order, each data page once.
		var wantTuples []Tuple
		var wantPages []int
		for slot, tup := range slots {
			if k := tup.Attrs[Unique2]; k >= qlo && k <= qhi {
				wantTuples = append(wantTuples, tup)
				if len(wantPages) == 0 || wantPages[len(wantPages)-1] != pageOf(slot) {
					wantPages = append(wantPages, pageOf(slot))
				}
			}
		}
		acc, err := frag.SearchClustered(qlo, qhi, &buf)
		if err != nil {
			t.Fatal(err)
		}
		checkAccess(t, "clustered", acc, wantTuples, wantPages)
		clustered := len(wantTuples)

		// Non-clustered: qualifying slots stably ordered by unique1, one
		// data page per tuple.
		order := make([]int, len(slots))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool {
			return slots[order[i]].Attrs[Unique1] < slots[order[j]].Attrs[Unique1]
		})
		wantTuples, wantPages = nil, nil
		var tids []int64
		for _, slot := range order {
			if k := slots[slot].Attrs[Unique1]; k >= qlo && k <= qhi {
				wantTuples = append(wantTuples, slots[slot])
				wantPages = append(wantPages, pageOf(slot))
				tids = append(tids, slots[slot].TID)
			}
		}
		acc, err = frag.SearchNonClustered(Unique1, qlo, qhi, &buf)
		if err != nil {
			t.Fatal(err)
		}
		checkAccess(t, "non-clustered", acc, wantTuples, wantPages)

		// TID fetch returns the requested tuples in request order.
		acc, err = frag.FetchTIDs(tids, &buf)
		if err != nil {
			t.Fatal(err)
		}
		checkAccess(t, "fetch", acc, wantTuples, wantPages)

		// TID lookups against a map oracle, in both fragments: every TID
		// of the relation, negative ones and ones past its end. A
		// non-clustered index whose entry i carries probe i stands in for
		// an index gone wrong.
		probes := []int64{-1 << 40, -1, int64(n), int64(n) + 7, 1 << 40}
		for i := range tuples {
			probes = append(probes, int64(i))
		}
		stray := make([]btree.Entry, len(probes))
		for i, tid := range probes {
			stray[i] = btree.Entry{Key: int64(i), Val: tid}
		}
		tree := btree.Bulk(layout.IndexFanout, layout.IndexLeafCap, stray, alloc.AllocRun)
		for _, fr := range []*Fragment{frag, other} {
			oracle := make(map[int64]int, fr.NumTuples())
			for slot := 0; slot < fr.NumTuples(); slot++ {
				oracle[fr.Tuple(slot).TID] = slot
			}
			bad := *fr
			bad.indexes = []*Index{{Attr: Unique1, Tree: tree}}
			for i, tid := range probes {
				want, held := oracle[tid]
				acc, err := fr.FetchTIDs([]int64{tid}, nil)
				checkLookup(t, "fetch", "not in fragment", tid, acc, err, want, held)
				acc, err = bad.SearchNonClustered(Unique1, int64(i), int64(i), nil)
				checkLookup(t, "non-clustered", "foreign TID", tid, acc, err, want, held)
			}
		}

		// Auxiliary: qualifying entries stably ordered by value.
		aux := BuildAux(0, byValue(entries), layout, alloc)
		ref := append([]AuxEntry(nil), entries...)
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].Value < ref[j].Value })
		var wantByProc [][]int64
		wantN := 0
		for _, e := range ref {
			if e.Value >= qlo && e.Value <= qhi {
				for len(wantByProc) <= e.Proc {
					wantByProc = append(wantByProc, nil)
				}
				wantByProc[e.Proc] = append(wantByProc[e.Proc], e.TID)
				wantN++
			}
		}
		for pass := 0; pass < 2; pass++ {
			byProc, n, _ := aux.Lookup(qlo, qhi, &buf)
			if n != wantN || !reflect.DeepEqual(byProc, wantByProc) {
				t.Fatalf("aux lookup [%d, %d] pass %d = %d entries %v, want %d %v",
					qlo, qhi, pass, n, byProc, wantN, wantByProc)
			}
		}
		// The buffers are warm now: the searches still answer the same.
		acc, err = frag.SearchClustered(qlo, qhi, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if acc.N != clustered {
			t.Fatalf("clustered search on reused buffers found %d tuples, want %d", acc.N, clustered)
		}
	})
}

// checkLookup checks a one-TID access against the oracle: the slot it
// holds tid in, or the error naming msg when it does not hold it.
func checkLookup(t *testing.T, what, msg string, tid int64, acc Access, err error, slot int, held bool) {
	t.Helper()
	switch {
	case !held && (err == nil || !strings.Contains(err.Error(), msg)):
		t.Fatalf("%s of TID %d: error %v, want %q", what, tid, err, msg)
	case held && err != nil:
		t.Fatalf("%s of TID %d: %v, want slot %d", what, tid, err, slot)
	case held && (acc.N != 1 || acc.Slots[0] != slot):
		t.Fatalf("%s of TID %d: slots %v, want [%d]", what, tid, acc.Slots, slot)
	}
}

// checkAccess compares an access method's slot-resolved tuples and data
// pages with the brute-force expectation.
func checkAccess(t *testing.T, what string, acc Access, want []Tuple, pages []int) {
	t.Helper()
	if got := resolved(acc); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: got %d tuples %v, want %d %v", what, len(got), got, len(want), want)
	}
	if got := dataPages(acc); !reflect.DeepEqual(got, pages) {
		t.Fatalf("%s: data pages %v, want %v", what, got, pages)
	}
}
