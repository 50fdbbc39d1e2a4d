package core

import (
	"testing"

	"repro/internal/storage"
)

func TestMAGICRouteConjunct(t *testing.T) {
	rel, m := buildTestMAGIC(t, 5000, 0, 16, nil)
	// Point predicates on both partitioning attributes intersect to a
	// single cell: exactly one processor.
	tup := rel.Tuples[2500]
	route := m.RouteConjunct([]Predicate{
		{Attr: storage.Unique1, Lo: tup.Attrs[storage.Unique1], Hi: tup.Attrs[storage.Unique1]},
		{Attr: storage.Unique2, Lo: tup.Attrs[storage.Unique2], Hi: tup.Attrs[storage.Unique2]},
	})
	if len(route.Participants) != 1 {
		t.Fatalf("conjunctive point query routed to %d processors", len(route.Participants))
	}
	if route.Participants[0] != m.HomeOf(&tup) {
		t.Fatal("conjunctive route missed the tuple's home")
	}
	// The conjunction must cover no more cells than either single
	// predicate alone.
	single := m.Route(Predicate{Attr: storage.Unique1,
		Lo: tup.Attrs[storage.Unique1], Hi: tup.Attrs[storage.Unique1]})
	if route.EntriesSearched > single.EntriesSearched {
		t.Fatal("conjunction searched more entries than one of its conjuncts")
	}
}

func TestMAGICRouteConjunctSoundness(t *testing.T) {
	rel, m := buildTestMAGIC(t, 5000, 0, 16, nil)
	preds := []Predicate{
		{Attr: storage.Unique1, Lo: 1000, Hi: 1500},
		{Attr: storage.Unique2, Lo: 2000, Hi: 2600},
	}
	route := m.RouteConjunct(preds)
	parts := map[int]bool{}
	for _, p := range route.Participants {
		parts[p] = true
	}
	for _, tup := range rel.Tuples {
		a, b := tup.Attrs[storage.Unique1], tup.Attrs[storage.Unique2]
		if a >= 1000 && a <= 1500 && b >= 2000 && b <= 2600 && !parts[m.HomeOf(&tup)] {
			t.Fatalf("tuple %d matching the conjunction lives on unrouted processor %d",
				tup.TID, m.HomeOf(&tup))
		}
	}
}

func TestMAGICRouteConjunctEdgeCases(t *testing.T) {
	_, m := buildTestMAGIC(t, 5000, 0, 16, nil)
	// No predicates: no localization information.
	if got := len(m.RouteConjunct(nil).Participants); got != 16 {
		t.Fatalf("empty conjunction routed to %d processors", got)
	}
	// A non-partitioning conjunct forces all processors.
	route := m.RouteConjunct([]Predicate{
		{Attr: storage.Unique1, Lo: 1, Hi: 10},
		{Attr: storage.Ten, Lo: 5, Hi: 5},
	})
	if len(route.Participants) != 16 {
		t.Fatal("non-partitioning conjunct must route everywhere")
	}
	// Contradictory ranges cover nothing.
	route = m.RouteConjunct([]Predicate{
		{Attr: storage.Unique1, Lo: 100, Hi: 200},
		{Attr: storage.Unique1, Lo: 300, Hi: 400},
	})
	if len(route.Participants) != 0 {
		t.Fatalf("contradictory conjunction routed to %d processors", len(route.Participants))
	}
	// Repeated predicates on one attribute intersect.
	narrow := m.RouteConjunct([]Predicate{
		{Attr: storage.Unique1, Lo: 0, Hi: 4999},
		{Attr: storage.Unique1, Lo: 2500, Hi: 2500},
	})
	if len(narrow.Participants) == 0 || len(narrow.Participants) >= 16 {
		t.Fatalf("intersected ranges routed to %d processors", len(narrow.Participants))
	}
}
