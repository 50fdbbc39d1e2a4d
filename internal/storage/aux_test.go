package storage

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/btree"
	"repro/internal/rng"
)

// referenceAuxLookup is the first AuxFragment.Lookup: gather the packed
// entries in value order, stable-sort them on the processor and cut the
// runs into a map of per-processor TID lists.
func referenceAuxLookup(f *AuxFragment, lo, hi int64) (map[int][]int64, int, []int) {
	var packed []int64
	pages := f.Tree.Walk(lo, hi, nil, func(run []btree.Entry) {
		for _, e := range run {
			packed = append(packed, e.Val)
		}
	})
	if len(packed) == 0 {
		return nil, 0, pages
	}
	slices.SortStableFunc(packed, func(a, b int64) int {
		pa, _ := unpackAux(a)
		pb, _ := unpackAux(b)
		return cmp.Compare(pa, pb)
	})
	byProc := make(map[int][]int64)
	for i := 0; i < len(packed); {
		proc, _ := unpackAux(packed[i])
		j := i
		for ; j < len(packed); j++ {
			p, tid := unpackAux(packed[j])
			if p != proc {
				break
			}
			packed[j] = tid
		}
		byProc[proc] = packed[i:j:j]
		i = j
	}
	return byProc, len(packed), pages
}

// Lookup's counting partition returns exactly the grouping of the stable
// sort it replaced: the same TID list, in value order, for every
// processor, nil for a processor with none, a slice ending at the highest
// processor with TIDs, the same entry count and page trace, and every
// list capped at its length.
func TestAuxLookupMatchesSortedReference(t *testing.T) {
	src := rng.NewFactory(5).Stream("aux")
	gen := func(n int, values, procs func(i int) int) []AuxEntry {
		out := make([]AuxEntry, n)
		for i := range out {
			out[i] = AuxEntry{Value: int64(values(i)), TID: int64(src.Intn(1 << 20)), Proc: procs(i)}
		}
		return out
	}
	random := func(n int) func(int) int { return func(int) int { return src.Intn(n) } }
	cases := []struct {
		name    string
		entries []AuxEntry
	}{
		{"duplicate values", gen(300, random(12), random(6))},
		{"one value", gen(50, func(int) int { return 7 }, random(4))},
		{"single processor", gen(200, random(1000), func(int) int { return 0 })},
		{"single high processor", gen(200, random(1000), func(int) int { return 9 })},
		{"32 processors, some empty", gen(2000, random(5000), func(int) int {
			p := src.Intn(32)
			if p%5 == 3 {
				p-- // processors 3, 8, 13, ... hold nothing
			}
			return p
		})},
		{"near the pack limit", gen(400, random(800), func(i int) int { return 1<<16 - 1 - src.Intn(3)*(i%2) })},
		{"empty fragment", nil},
	}
	ranges := [][2]int64{{0, -1}, {5, 5}, {0, 11}, {100, 180}, {-50, 10}, {2000, 9000},
		{math.MinInt64, math.MaxInt64}}
	for _, tc := range cases {
		aux := BuildAux(3, tc.entries, smallLayout(), NewAllocator(1<<20))
		for _, r := range ranges {
			t.Run(fmt.Sprintf("%s/[%d,%d]", tc.name, r[0], r[1]), func(t *testing.T) {
				got, n, pages := aux.Lookup(r[0], r[1], nil)
				want, wantN, wantPages := referenceAuxLookup(aux, r[0], r[1])
				if n != wantN || !reflect.DeepEqual(pages, wantPages) {
					t.Fatalf("%d entries, pages %v; want %d, %v", n, pages, wantN, wantPages)
				}
				if want == nil {
					if got != nil {
						t.Fatalf("got %d processors for an empty answer", len(got))
					}
					return
				}
				highest := -1
				for p := range want {
					highest = max(highest, p)
				}
				if len(got) != highest+1 {
					t.Fatalf("answer covers %d processors, want %d", len(got), highest+1)
				}
				for p, tids := range got {
					if !slices.Equal(tids, want[p]) || (tids == nil) != (want[p] == nil) {
						t.Fatalf("processor %d: %v, want %v", p, tids, want[p])
					}
					if cap(tids) != len(tids) {
						t.Fatalf("processor %d: list of %d has capacity %d", p, len(tids), cap(tids))
					}
				}
			})
		}
	}
}
