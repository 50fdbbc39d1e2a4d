package storage

import (
	"cmp"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestGenerateWisconsinBasics(t *testing.T) {
	r := GenerateWisconsin(GenSpec{Cardinality: 1000, Seed: 1})
	if r.Cardinality() != 1000 {
		t.Fatalf("cardinality = %d", r.Cardinality())
	}
	if r.Name != "wisconsin" {
		t.Fatalf("default name = %q", r.Name)
	}
	// unique2 is sequential; unique1 is a permutation of 0..n-1.
	seen := make([]bool, 1000)
	for i, tup := range r.Tuples {
		if tup.Attrs[Unique2] != int64(i) {
			t.Fatalf("unique2[%d] = %d", i, tup.Attrs[Unique2])
		}
		if tup.TID != int64(i) {
			t.Fatalf("TID[%d] = %d", i, tup.TID)
		}
		u1 := tup.Attrs[Unique1]
		if u1 < 0 || u1 >= 1000 || seen[u1] {
			t.Fatalf("unique1 not a permutation: %d at %d", u1, i)
		}
		seen[u1] = true
		if tup.Attrs[Two] != u1%2 || tup.Attrs[Ten] != u1%10 || tup.Attrs[OnePercent] != u1%100 {
			t.Fatalf("derived attributes wrong for tuple %d", i)
		}
	}
}

func TestGenerateWisconsinDeterministic(t *testing.T) {
	a := GenerateWisconsin(GenSpec{Cardinality: 500, Seed: 9})
	b := GenerateWisconsin(GenSpec{Cardinality: 500, Seed: 9})
	for i := range a.Tuples {
		if a.Tuples[i] != b.Tuples[i] {
			t.Fatalf("generation not deterministic at tuple %d", i)
		}
	}
	c := GenerateWisconsin(GenSpec{Cardinality: 500, Seed: 10})
	diff := 0
	for i := range a.Tuples {
		if a.Tuples[i].Attrs[Unique1] != c.Tuples[i].Attrs[Unique1] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical permutations")
	}
}

func TestCorrelationWindowIdentity(t *testing.T) {
	r := GenerateWisconsin(GenSpec{Cardinality: 100, CorrelationWindow: 1, Seed: 4})
	for i, tup := range r.Tuples {
		if tup.Attrs[Unique1] != int64(i) {
			t.Fatalf("window=1 should give identical attributes; unique1[%d]=%d", i, tup.Attrs[Unique1])
		}
	}
}

func TestCorrelationWindowBoundsDisplacement(t *testing.T) {
	const n, w = 10000, 100
	r := GenerateWisconsin(GenSpec{Cardinality: n, CorrelationWindow: w, Seed: 4})
	for i, tup := range r.Tuples {
		d := tup.Attrs[Unique1] - int64(i)
		if d < -w || d > w {
			t.Fatalf("displacement %d at tuple %d exceeds window %d", d, i, w)
		}
	}
}

// Property: any window produces a valid permutation.
func TestCorrelationPermutationProperty(t *testing.T) {
	check := func(window uint8, seed int64) bool {
		n := 256
		r := GenerateWisconsin(GenSpec{Cardinality: n, CorrelationWindow: int(window), Seed: seed})
		seen := make([]bool, n)
		for _, tup := range r.Tuples {
			u1 := tup.Attrs[Unique1]
			if u1 < 0 || u1 >= int64(n) || seen[u1] {
				return false
			}
			seen[u1] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUncorrelatedIsWellShuffled(t *testing.T) {
	const n = 10000
	r := GenerateWisconsin(GenSpec{Cardinality: n, CorrelationWindow: 0, Seed: 4})
	// Count fixed points; expectation is ~1 for a uniform permutation.
	fixed := 0
	for i, tup := range r.Tuples {
		if tup.Attrs[Unique1] == int64(i) {
			fixed++
		}
	}
	if fixed > 10 {
		t.Fatalf("%d fixed points in a supposedly uncorrelated permutation", fixed)
	}
}

func TestAttrBounds(t *testing.T) {
	r := GenerateWisconsin(GenSpec{Cardinality: 100, Seed: 1})
	lo, hi := r.AttrBounds(Unique1)
	if lo != 0 || hi != 99 {
		t.Fatalf("bounds = [%d, %d]", lo, hi)
	}
	empty := &Relation{}
	if lo, hi := empty.AttrBounds(Unique1); lo != 0 || hi != -1 {
		t.Fatalf("empty bounds = [%d, %d]", lo, hi)
	}
}

// shuffledRelation is a relation of n tuples, TID equal to position,
// whose unique2 and ten repeat and stand in no order.
func shuffledRelation(n int) *Relation {
	r := &Relation{Name: "shuffled", Tuples: make([]Tuple, n)}
	for i := range r.Tuples {
		t := &r.Tuples[i]
		t.TID = int64(i)
		t.Attrs[Unique2] = int64(i*7919) % 97
		t.Attrs[Ten] = int64(i*31) % 10
		t.Attrs[Unique1] = -int64(i)
	}
	return r
}

// The kept orders are the stable sorts they stand for: Order by the
// attribute then row, OrderThen by the attribute, then the second, then
// row. A relation already in an attribute's order gets the identity, and
// OrderThen over an identity order is the attribute's own order, shared.
func TestRelationOrders(t *testing.T) {
	r := shuffledRelation(500)
	by := func(attrs ...int) []int32 {
		rows := allRows(len(r.Tuples))
		slices.SortStableFunc(rows, func(a, b int32) int {
			for _, attr := range attrs {
				if c := cmp.Compare(r.Tuples[a].Attrs[attr], r.Tuples[b].Attrs[attr]); c != 0 {
					return c
				}
			}
			return 0
		})
		return rows
	}
	for _, c := range []struct {
		name string
		got  []int32
		want []int32
	}{
		{"unique2", r.Order(Unique2), by(Unique2)},
		{"ten", r.Order(Ten), by(Ten)},
		{"ten then unique2", r.OrderThen(Ten, Unique2), by(Ten, Unique2)},
		{"unique2 then ten", r.OrderThen(Unique2, Ten), by(Unique2, Ten)},
		{"unique1", r.Order(Unique1), by(Unique1)},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s: order %v, want %v", c.name, c.got[:10], c.want[:10])
		}
	}
	if lo, hi := r.AttrBounds(Unique1); lo != -499 || hi != 0 {
		t.Errorf("unique1 bounds [%d, %d], want [-499, 0]", lo, hi)
	}

	w := GenerateWisconsin(GenSpec{Cardinality: 300, Seed: 4})
	if !slices.Equal(w.Order(Unique2), allRows(300)) {
		t.Error("a relation generated in unique2 order does not get the identity order")
	}
	if a, b := w.Order(Unique1), w.OrderThen(Unique1, Unique2); &a[0] != &b[0] {
		t.Error("OrderThen over the identity order is not the attribute's own order")
	}
}

// Goroutines that ask one relation for its orders at the same time, as
// the placements built on the worker pool do, all get the one order
// sorted once.
func TestRelationOrdersConcurrent(t *testing.T) {
	r := shuffledRelation(2000)
	const goroutines = 8
	got := make([][2][]int32, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = [2][]int32{r.OrderThen(Ten, Unique2), r.Order(Unique2)}
		}()
	}
	wg.Wait()
	for g := range got {
		for k := range got[g] {
			if &got[g][k][0] != &got[0][k][0] {
				t.Fatalf("goroutine %d got its own copy of order %d", g, k)
			}
		}
	}
}

func TestAttrNames(t *testing.T) {
	if AttrName(Unique1) != "unique1" || AttrName(Unique2) != "unique2" {
		t.Fatal("attribute names wrong")
	}
	if AttrName(99) != "attr99" {
		t.Fatalf("out-of-range name = %q", AttrName(99))
	}
	if NumAttrs != 13 {
		t.Fatalf("Wisconsin relation must have 13 attributes, have %d", NumAttrs)
	}
}

func TestGenerateRejectsNonPositiveCardinality(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero cardinality did not panic")
		}
	}()
	GenerateWisconsin(GenSpec{Cardinality: 0})
}
