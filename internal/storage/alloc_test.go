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
		acc := mustAcc(f.SearchClustered(lo, hi))
		if want := int(hi - lo + 1); acc.N != want {
			t.Fatalf("SearchClustered(%d, %d) matched %d tuples, want %d", lo, hi, acc.N, want)
		}
		return testing.AllocsPerRun(200, func() { mustAcc(f.SearchClustered(lo, hi)) })
	}
	one := allocs(1234, 1234)
	// 2300..2599 straddles the leaf boundary at entry 2400.
	many := allocs(2300, 2599)
	if one > 1 || many > one {
		t.Errorf("SearchClustered allocates %.1f/op for 1 tuple and %.1f/op for 300, want <= 1 and no more for 300", one, many)
	}
}
