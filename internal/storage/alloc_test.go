//go:build !race

package storage

import "testing"

// TestSearchClusteredAllocs guards the clustered access path, which every
// clustered selection operator runs: the qualifying tuples are a slot run
// and the data pages follow from it, so the only allocation is the index
// page trace, and a 300-tuple range allocates no more than a 1-tuple one.
func TestSearchClusteredAllocs(t *testing.T) {
	r := GenerateWisconsin(GenSpec{Cardinality: 3000, Seed: 3})
	alloc := NewAllocator(10000)
	f := BuildFragment(0, r.Tuples, allRows(len(r.Tuples)), make([]int32, len(r.Tuples)), Unique2, DefaultLayout(), alloc)
	f.AddIndex(Unique2, alloc)
	allocs := func(lo, hi int64) float64 {
		acc := mustAcc(f.SearchClustered(lo, hi, nil))
		if want := int(hi - lo + 1); acc.N != want {
			t.Fatalf("SearchClustered(%d, %d) matched %d tuples, want %d", lo, hi, acc.N, want)
		}
		return testing.AllocsPerRun(200, func() { mustAcc(f.SearchClustered(lo, hi, nil)) })
	}
	one := allocs(1234, 1234)
	// 2300..2599 straddles the leaf boundary at entry 2400.
	many := allocs(2300, 2599)
	if one > 1 || many > one {
		t.Errorf("SearchClustered allocates %.1f/op for 1 tuple and %.1f/op for 300, want <= 1 and no more for 300", one, many)
	}
}

// TestBuffersAllocs guards what an operator's search costs once its
// Buffers are warm: nothing, for every access method and an aux lookup.
func TestBuffersAllocs(t *testing.T) {
	r := GenerateWisconsin(GenSpec{Cardinality: 3000, Seed: 3})
	alloc := NewAllocator(10000)
	f := BuildFragment(0, r.Tuples, allRows(len(r.Tuples)), make([]int32, len(r.Tuples)), Unique2, DefaultLayout(), alloc)
	f.AddIndex(Unique2, alloc)
	f.AddIndex(Unique1, alloc)
	entries := make([]AuxEntry, len(r.Tuples))
	for i, tup := range r.Tuples {
		entries[i] = AuxEntry{Value: tup.Attrs[Unique1], TID: tup.TID, Proc: i % 8}
	}
	aux := BuildAux(0, entries, DefaultLayout(), alloc)
	tids := []int64{5, 500, 2999}
	var buf Buffers
	search := func() {
		mustAcc(f.SearchClustered(100, 399, &buf))
		mustAcc(f.SearchNonClustered(Unique1, 100, 399, &buf))
		mustAcc(f.FetchTIDs(tids, &buf))
		f.Scan(Unique1, 100, 399, &buf)
		if _, n, _ := aux.Lookup(100, 399, &buf); n != 300 {
			t.Fatalf("aux lookup found %d entries, want 300", n)
		}
	}
	search() // grows the buffers
	if n := testing.AllocsPerRun(100, search); n != 0 {
		t.Errorf("searches on warm buffers allocate %v per run, want 0", n)
	}
}
