//go:build !race

package btree

import (
	"math/rand"
	"testing"
)

// TestSortEntriesAllocs guards the radix sort a relation order is built
// with. Its only allocation is the scratch buffer: none when fewer than two
// entries or all-equal keys leave no pass to make, and one when three or
// eight bytes each need a pass.
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
		name   string
		input  []Entry
		allocs float64
	}{
		{"empty", nil, 0},
		{"one", keyed(1, func(int) int64 { return 3 }), 0},
		{"all equal", keyed(500, func(int) int64 { return 3 }), 0},
		{"two", keyed(2, func(i int) int64 { return int64(1 - i) }), 1},
		{"wisconsin", keyed(3125, func(int) int64 { return rng.Int63n(100000) }), 1},
		{"wide", keyed(1000, func(int) int64 { return int64(rng.Uint64()) }), 1},
	}
	for _, c := range cases {
		work := make([]Entry, len(c.input))
		allocs := testing.AllocsPerRun(50, func() {
			copy(work, c.input)
			SortEntries(work)
		})
		if allocs != c.allocs {
			t.Errorf("%s: SortEntries of %d entries allocates %.1f/op, want %.0f",
				c.name, len(c.input), allocs, c.allocs)
		}
	}
}
