package core

import (
	"reflect"
	"testing"

	"repro/internal/storage"
)

func testBERD(t *testing.T, n, corrWindow, p int) (*storage.Relation, *BERDPlacement) {
	t.Helper()
	rel := testRelation(t, n, corrWindow)
	b := NewBERDForRelation(rel, storage.Unique1, []int{storage.Unique2}, p)
	return rel, b
}

func TestBERDMetadata(t *testing.T) {
	_, b := testBERD(t, 1000, 0, 8)
	if b.Name() != "berd" || b.Processors() != 8 {
		t.Fatal("metadata wrong")
	}
	if b.primary.attr != storage.Unique1 {
		t.Fatal("primary attr wrong")
	}
	sec := b.SecondaryAttrs()
	if len(sec) != 1 || sec[0] != storage.Unique2 {
		t.Fatalf("secondary attrs = %v", sec)
	}
}

// SecondaryAttrs is ascending whatever order the attributes were given in
// and however the placement's map iterates.
func TestBERDSecondaryAttrsAscending(t *testing.T) {
	rel := testRelation(t, 500, 0)
	b := NewBERDForRelation(rel, storage.Unique1, []int{storage.Unique3, storage.Ten, storage.Unique2}, 4)
	want := []int{storage.Unique2, storage.Ten, storage.Unique3}
	for i := 0; i < 20; i++ {
		if got := b.SecondaryAttrs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("secondary attrs = %v, want %v", got, want)
		}
	}
}

func TestBERDPrimaryRoutesLikeRange(t *testing.T) {
	rel, b := testBERD(t, 1000, 0, 8)
	r := NewRangeForRelation(rel, storage.Unique1, 8)
	for _, pred := range []Predicate{
		{Attr: storage.Unique1, Lo: 500, Hi: 500},
		{Attr: storage.Unique1, Lo: 100, Hi: 400},
	} {
		br, rr := b.Route(pred), r.Route(pred)
		if len(br.Participants) != len(rr.Participants) || len(br.Aux) != 0 {
			t.Fatalf("BERD primary route %v differs from range %v", br, rr)
		}
	}
}

func TestBERDSecondaryIsTwoStep(t *testing.T) {
	_, b := testBERD(t, 1000, 0, 8)
	route := b.Route(Predicate{Attr: storage.Unique2, Lo: 100, Hi: 110})
	if len(route.Participants) != 0 {
		t.Fatal("secondary route must not have direct participants")
	}
	if len(route.Aux) != 1 {
		t.Fatalf("narrow secondary range should hit one aux fragment, got %v", route.Aux)
	}
	wide := b.Route(Predicate{Attr: storage.Unique2, Lo: 0, Hi: 999})
	if len(wide.Aux) != 8 {
		t.Fatalf("full secondary range should hit all aux fragments, got %d", len(wide.Aux))
	}
}

func TestBERDOtherAttributeVisitsAll(t *testing.T) {
	_, b := testBERD(t, 1000, 0, 8)
	route := b.Route(Predicate{Attr: storage.Ten, Lo: 5, Hi: 5})
	if len(route.Participants) != 8 || len(route.Aux) != 0 {
		t.Fatalf("route = %+v", route)
	}
}

func TestBERDAuxAssignmentsComplete(t *testing.T) {
	rel, b := testBERD(t, 1000, 0, 8)
	homes := make([]int32, rel.Cardinality())
	for i, tup := range rel.Tuples {
		homes[i] = int32(b.HomeOf(&tup))
	}
	perProc := b.AuxAssignments(rel, storage.Unique2, homes)
	if len(perProc) != 8 {
		t.Fatalf("aux entries for %d processors, want 8", len(perProc))
	}
	total := 0
	for node, entries := range perProc {
		total += len(entries)
		for i, e := range entries {
			if b.AuxHomeOf(storage.Unique2, e.Value) != node {
				t.Fatalf("aux entry value %d on node %d, belongs on %d",
					e.Value, node, b.AuxHomeOf(storage.Unique2, e.Value))
			}
			// Each processor's entries keep relation order.
			if i > 0 && entries[i-1].TID >= e.TID {
				t.Fatalf("aux node %d: TID %d after %d", node, e.TID, entries[i-1].TID)
			}
			// The recorded home processor must match the placement.
			if e.Proc != b.HomeOf(&rel.Tuples[e.TID]) {
				t.Fatalf("aux entry for TID %d records proc %d, tuple lives on %d",
					e.TID, e.Proc, b.HomeOf(&rel.Tuples[e.TID]))
			}
		}
	}
	if total != rel.Cardinality() {
		t.Fatalf("aux holds %d entries for %d tuples", total, rel.Cardinality())
	}
	// Aux entries spread evenly (quantile cuts on a permutation).
	for node, entries := range perProc {
		if len(entries) != 125 {
			t.Fatalf("aux node %d holds %d entries", node, len(entries))
		}
	}
}

// With uncorrelated attributes, the tuples a narrow secondary range selects
// live on many distinct processors; with identical attributes they collapse
// to one or two — the Section 4 localization effect.
func TestBERDCorrelationLocalizesSecondaryQueries(t *testing.T) {
	distinctHomes := func(corrWindow int) int {
		rel, b := testBERD(t, 2000, corrWindow, 16)
		procs := map[int]bool{}
		for _, tup := range rel.Tuples {
			v := tup.Attrs[storage.Unique2]
			if v >= 1000 && v < 1010 { // 10-tuple secondary range
				procs[b.HomeOf(&tup)] = true
			}
		}
		return len(procs)
	}
	low := distinctHomes(0)
	high := distinctHomes(1)
	if low < 5 {
		t.Fatalf("uncorrelated 10-tuple range hit only %d processors", low)
	}
	if high != 1 {
		t.Fatalf("identical attributes should localize to 1 processor, got %d", high)
	}
}

func TestBERDConstructorValidation(t *testing.T) {
	rel := testRelation(t, 100, 0)
	cuts := QuantileCuts(rel, storage.Unique1, 4)
	for i, fn := range []func(){
		func() { // secondary == primary
			NewBERD(storage.Unique1, cuts, map[int][]int64{storage.Unique1: cuts}, 4)
		},
		func() { // wrong aux cut count
			NewBERD(storage.Unique1, cuts, map[int][]int64{storage.Unique2: {1}}, 4)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: NewBERD accepted bad arguments", i)
				}
			}()
			fn()
		}()
	}
}

func TestBERDAuxHomeOfUnknownAttrPanics(t *testing.T) {
	_, b := testBERD(t, 100, 0, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown secondary attribute did not panic")
		}
	}()
	b.AuxHomeOf(storage.Ten, 5)
}
