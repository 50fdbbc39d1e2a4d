package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/storage"
)

func testRelation(t *testing.T, n, corrWindow int) *storage.Relation {
	t.Helper()
	return storage.GenerateWisconsin(storage.GenSpec{
		Cardinality: n, CorrelationWindow: corrWindow, Seed: 21,
	})
}

func TestQuantileCutsEvenBuckets(t *testing.T) {
	rel := testRelation(t, 1000, 0)
	cuts := QuantileCuts(rel, storage.Unique1, 8)
	if len(cuts) != 7 {
		t.Fatalf("cuts = %v", cuts)
	}
	counts := make([]int, 8)
	for _, tup := range rel.Tuples {
		counts[bucketOf(cuts, tup.Attrs[storage.Unique1])]++
	}
	for i, c := range counts {
		if c != 125 {
			t.Fatalf("bucket %d holds %d tuples (counts %v)", i, c, counts)
		}
	}
}

// sortedCuts is QuantileCuts by a comparison sort of the values.
func sortedCuts(vals []int64, p int) []int64 {
	vals = slices.Clone(vals)
	slices.Sort(vals)
	cuts := make([]int64, p-1)
	for i := 1; i < p; i++ {
		cuts[i-1] = vals[i*len(vals)/p]
	}
	return cuts
}

// QuantileCuts equals the cuts a comparison sort of the values gives, on
// random values of either sign, on the correlated and uncorrelated
// Wisconsin attributes, on all-equal values and with more buckets than
// values.
func TestQuantileCutsMatchSortedCuts(t *testing.T) {
	src := rand.New(rand.NewSource(3))
	equal := make([]int64, 500)
	for i := range equal {
		equal[i] = -7
	}
	valueSets := map[string][]int64{"all-equal": equal}
	for _, n := range []int{1, 2, 5, 999, 4096} {
		random, small := make([]int64, n), make([]int64, n)
		for i := range random {
			random[i] = src.Int63() - 1<<62
			small[i] = src.Int63n(9) - 4
		}
		valueSets[fmt.Sprintf("random-%d", n)] = random
		valueSets[fmt.Sprintf("small-%d", n)] = small
	}
	for _, w := range []int{0, 1, 10} {
		rel := testRelation(t, 3000, w)
		for _, attr := range []int{storage.Unique1, storage.Unique2, storage.Ten} {
			vals := make([]int64, rel.Cardinality())
			for i, tup := range rel.Tuples {
				vals[i] = tup.Attrs[attr]
			}
			valueSets[fmt.Sprintf("wisconsin-w%d-%s", w, storage.AttrName(attr))] = vals
		}
	}
	for name, vals := range valueSets {
		rel := &storage.Relation{Tuples: make([]storage.Tuple, len(vals))}
		for i, v := range vals {
			rel.Tuples[i].Attrs[storage.Ten] = v
		}
		for _, p := range []int{1, 2, 7, 32, len(vals) + 3} {
			if got, want := QuantileCuts(rel, storage.Ten, p), sortedCuts(vals, p); !slices.Equal(got, want) {
				t.Fatalf("%s, %d buckets: cuts %v, sorted cuts %v", name, p, got, want)
			}
		}
	}
}

func TestRangePlacementRouting(t *testing.T) {
	rel := testRelation(t, 1000, 0)
	r := NewRangeForRelation(rel, storage.Unique1, 8)
	if r.Name() != "range" || r.Processors() != 8 || r.attr != storage.Unique1 {
		t.Fatal("metadata wrong")
	}
	// Equality on the partitioning attribute: one processor.
	route := r.Route(Predicate{Attr: storage.Unique1, Lo: 500, Hi: 500})
	if len(route.Participants) != 1 {
		t.Fatalf("equality routed to %v", route.Participants)
	}
	// A range within one bucket: one processor; full domain: all 8.
	route = r.Route(Predicate{Attr: storage.Unique1, Lo: 0, Hi: 999})
	if len(route.Participants) != 8 {
		t.Fatalf("full range routed to %d processors", len(route.Participants))
	}
	// Any other attribute: all processors.
	route = r.Route(Predicate{Attr: storage.Unique2, Lo: 5, Hi: 5})
	if len(route.Participants) != 8 {
		t.Fatalf("non-partitioning attribute routed to %d", len(route.Participants))
	}
}

func TestRangePlacementHomeMatchesRouting(t *testing.T) {
	rel := testRelation(t, 1000, 0)
	r := NewRangeForRelation(rel, storage.Unique1, 8)
	for _, tup := range rel.Tuples[:100] {
		home := r.HomeOf(&tup)
		route := r.Route(Predicate{Attr: storage.Unique1, Lo: tup.Attrs[storage.Unique1], Hi: tup.Attrs[storage.Unique1]})
		if len(route.Participants) != 1 || route.Participants[0] != home {
			t.Fatalf("tuple %d: home %d but routed to %v", tup.TID, home, route.Participants)
		}
	}
}

func TestRangeCutsValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { NewRange(0, []int64{1, 2}, 8) }, // wrong count
		func() { NewRange(0, []int64{5, 1}, 3) }, // not ascending
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: NewRange accepted bad cuts", i)
				}
			}()
			fn()
		}()
	}
}

func TestHashPlacementRouting(t *testing.T) {
	h := NewHash(storage.Unique1, 8)
	if h.Name() != "hash" || h.Processors() != 8 {
		t.Fatal("metadata wrong")
	}
	eq := h.Route(Predicate{Attr: storage.Unique1, Lo: 42, Hi: 42})
	if len(eq.Participants) != 1 {
		t.Fatalf("hash equality routed to %v", eq.Participants)
	}
	rng := h.Route(Predicate{Attr: storage.Unique1, Lo: 10, Hi: 20})
	if len(rng.Participants) != 8 {
		t.Fatal("hash range predicate must visit all processors")
	}
	other := h.Route(Predicate{Attr: storage.Unique2, Lo: 42, Hi: 42})
	if len(other.Participants) != 8 {
		t.Fatal("other attribute must visit all processors")
	}
}

func TestHashHomeMatchesEqualityRoute(t *testing.T) {
	rel := testRelation(t, 500, 0)
	h := NewHash(storage.Unique1, 8)
	for _, tup := range rel.Tuples[:50] {
		route := h.Route(Predicate{Attr: storage.Unique1, Lo: tup.Attrs[storage.Unique1], Hi: tup.Attrs[storage.Unique1]})
		if route.Participants[0] != h.HomeOf(&tup) {
			t.Fatal("hash equality route disagrees with HomeOf")
		}
	}
}

func TestHashSpreadsLoad(t *testing.T) {
	rel := testRelation(t, 8000, 0)
	h := NewHash(storage.Unique1, 8)
	counts := make([]int, 8)
	for _, tup := range rel.Tuples {
		counts[h.HomeOf(&tup)]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("hash bucket %d holds %d of 8000", i, c)
		}
	}
}

func TestPredicateString(t *testing.T) {
	eq := Predicate{Attr: storage.Unique1, Lo: 5, Hi: 5}
	if !eq.Equality() {
		t.Fatal("equality not detected")
	}
	if eq.String() != "unique1 = 5" {
		t.Fatalf("String = %q", eq.String())
	}
	rg := Predicate{Attr: storage.Unique2, Lo: 1, Hi: 9}
	if rg.Equality() || rg.String() != "1 <= unique2 <= 9" {
		t.Fatalf("String = %q", rg.String())
	}
}

func TestUniqueSorted(t *testing.T) {
	got := uniqueSorted([]int{3, 1, 3, 2, 1})
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}
