//go:build !race

package btree

import (
	"math/rand"
	"testing"
)

// TestSortEntriesAllocs guards the radix sort the storage layout runs on
// every index and auxiliary build. Its only allocation is the scratch
// buffer, which the pool hands back on the next call, so once one call has
// filled the pool a sort allocates nothing: not when fewer than two entries
// or all-equal keys leave no pass to make, and not when three or eight
// bytes each need one.
func TestSortEntriesAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	keyed := func(n int, key func(i int) int64) []Entry {
		es := make([]Entry, n)
		for i := range es {
			es[i] = Entry{Key: key(i), Val: int64(i)}
		}
		return es
	}
	cases := []struct {
		name  string
		input []Entry
	}{
		{"empty", nil},
		{"one", keyed(1, func(int) int64 { return 3 })},
		{"all equal", keyed(500, func(int) int64 { return 3 })},
		{"two", keyed(2, func(i int) int64 { return int64(1 - i) })},
		{"wisconsin", keyed(3125, func(int) int64 { return rng.Int63n(100000) })},
		{"wide", keyed(1000, func(int) int64 { return int64(rng.Uint64()) })},
	}
	for _, c := range cases {
		work := make([]Entry, len(c.input))
		allocs := testing.AllocsPerRun(50, func() {
			copy(work, c.input)
			SortEntries(work)
		})
		if allocs > 0 {
			t.Errorf("%s: SortEntries of %d entries allocates %.1f/op, want 0 once the pool holds a buffer",
				c.name, len(c.input), allocs)
		}
	}
}
