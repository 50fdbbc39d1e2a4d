package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/storage"
)

// Every listed strategy builds a placement of its own name, and rejects a
// non-positive processor count with an error, not a panic. The list is
// sorted.
func TestRegistryShippedStrategies(t *testing.T) {
	if want := []string{"berd", "hash", "magic", "range", "roundrobin"}; !slices.Equal(strategies, want) {
		t.Fatalf("strategies = %v, want %v", strategies, want)
	}
	rel := testRelation(t, 1000, 0)
	for _, name := range strategies {
		pl, err := BuildStrategy(name, StrategyParams{
			Relation: rel, Processors: 4, PrimaryAttr: storage.Unique1,
			SecondaryAttrs: []int{storage.Unique2},
			Specs:          magicWorkload(),
			Plan:           PlanParams{CPms: 1.7, CSms: 0.003, Processors: 4, Cardinality: 1000},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pl.Name() != name || pl.Processors() != 4 {
			t.Errorf("%s built %s over %d processors", name, pl.Name(), pl.Processors())
		}
		if _, err := BuildStrategy(name, StrategyParams{Relation: rel}); err == nil {
			t.Errorf("%s accepted 0 processors", name)
		}
	}
}

func TestRegistryUnknownStrategyListsNames(t *testing.T) {
	_, err := BuildStrategy("nope", StrategyParams{Processors: 4})
	if err == nil {
		t.Fatal("unknown strategy accepted")
	}
	for _, name := range strategies {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered strategy %q", err, name)
		}
	}
}

// Builders that derive value distributions must reject a missing relation
// with an error, not a panic.
func TestRegistryMissingRelation(t *testing.T) {
	for _, name := range []string{"range", "berd", "magic"} {
		if _, err := BuildStrategy(name, StrategyParams{Processors: 4, PrimaryAttr: storage.Unique1}); err == nil {
			t.Errorf("%s accepted a nil relation", name)
		}
	}
}

// Relation-free strategies build from parameters alone and match direct
// construction.
func TestRegistryRelationFreeStrategies(t *testing.T) {
	hash, err := BuildStrategy("hash", StrategyParams{Processors: 8, PrimaryAttr: storage.Unique1})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := BuildStrategy("roundrobin", StrategyParams{Processors: 8})
	if err != nil {
		t.Fatal(err)
	}
	direct := NewHash(storage.Unique1, 8)
	for v := int64(0); v < 100; v++ {
		tp := storage.Tuple{}
		tp.Attrs[storage.Unique1] = v
		if hash.HomeOf(&tp) != direct.HomeOf(&tp) {
			t.Fatalf("hash HomeOf(%d) = %d, direct = %d", v, hash.HomeOf(&tp), direct.HomeOf(&tp))
		}
	}
	if rr.Processors() != 8 || hash.Processors() != 8 {
		t.Fatalf("processors: rr=%d hash=%d", rr.Processors(), hash.Processors())
	}
}
