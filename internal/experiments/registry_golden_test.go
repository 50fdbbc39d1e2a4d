package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gamma"
	"repro/internal/storage"
	"repro/internal/workload"
)

// directPlacement constructs each strategy by calling its constructor
// directly, as the golden reference BuildPlacement's path through
// core.BuildStrategy must reproduce.
func directPlacement(t *testing.T, name string, rel *storage.Relation, mix workload.Mix, opts Options) core.Placement {
	t.Helper()
	opts = opts.withDefaults()
	cfg := gamma.DefaultConfig()
	if opts.Config != nil {
		cfg = *opts.Config
	}
	switch name {
	case StrategyRange:
		return core.NewRangeForRelation(rel, storage.Unique1, opts.Processors)
	case StrategyHash:
		return core.NewHash(storage.Unique1, opts.Processors)
	case StrategyBERD:
		return core.NewBERDForRelation(rel, storage.Unique1, []int{storage.Unique2}, opts.Processors)
	case StrategyMAGIC:
		specs := workload.EstimateSpecs(mix, rel.Cardinality(), cfg.HW, cfg.Costs)
		pp := workload.PlanParamsFor(rel.Cardinality(), opts.Processors, cfg.Costs)
		pl, err := core.BuildMAGIC(rel, []int{storage.Unique1, storage.Unique2}, specs, pp, nil)
		if err != nil {
			t.Fatalf("direct MAGIC: %v", err)
		}
		return pl
	default:
		t.Fatalf("direct construction has no strategy %q", name)
		return nil
	}
}

// samplePredicates covers the routing surface: equality and range
// predicates on both partitioning attributes plus an unpartitioned one.
func samplePredicates(card int) []core.Predicate {
	c := int64(card)
	return []core.Predicate{
		{Attr: storage.Unique1, Lo: 0, Hi: 0},
		{Attr: storage.Unique1, Lo: c / 4, Hi: c / 4},
		{Attr: storage.Unique1, Lo: c / 3, Hi: c/3 + c/10},
		{Attr: storage.Unique1, Lo: 0, Hi: c - 1},
		{Attr: storage.Unique2, Lo: c / 2, Hi: c / 2},
		{Attr: storage.Unique2, Lo: c / 5, Hi: c/5 + c/20},
		{Attr: storage.Two, Lo: 0, Hi: 1},
	}
}

func routesEqual(a, b core.Route) bool {
	if len(a.Participants) != len(b.Participants) || len(a.Aux) != len(b.Aux) ||
		a.EntriesSearched != b.EntriesSearched {
		return false
	}
	for i := range a.Participants {
		if a.Participants[i] != b.Participants[i] {
			return false
		}
	}
	for i := range a.Aux {
		if a.Aux[i] != b.Aux[i] {
			return false
		}
	}
	return true
}

// TestRegistryGoldenAgainstDirectConstruction builds every strategy of
// every figure both ways — through BuildPlacement and through the direct
// constructors — and asserts identical HomeOf for every
// tuple and identical Route for the predicate sample. Runs at reduced
// cardinality so the full strategy × figure matrix stays fast.
func TestRegistryGoldenAgainstDirectConstruction(t *testing.T) {
	opts := Options{Cardinality: 4000, Processors: 8, Seed: 1,
		MPLs: []int{1}, WarmupQueries: 1, MeasureQueries: 1}
	for _, fig := range Figures() {
		rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: opts.Cardinality,
			CorrelationWindow: fig.Correlation.window(opts.Cardinality), Seed: opts.Seed})
		mix := fig.Mix(opts.Cardinality)
		for _, name := range fig.Strategies {
			viaRegistry, err := BuildPlacement(name, rel, mix, opts)
			if err != nil {
				t.Fatalf("fig %s/%s: registry build: %v", fig.ID, name, err)
			}
			direct := directPlacement(t, name, rel, mix, opts)
			if viaRegistry.Name() != direct.Name() ||
				viaRegistry.Processors() != direct.Processors() {
				t.Fatalf("fig %s/%s: identity mismatch: %s/%d vs %s/%d",
					fig.ID, name, viaRegistry.Name(), viaRegistry.Processors(),
					direct.Name(), direct.Processors())
			}
			for i := range rel.Tuples {
				if g, w := viaRegistry.HomeOf(&rel.Tuples[i]), direct.HomeOf(&rel.Tuples[i]); g != w {
					t.Fatalf("fig %s/%s: HomeOf(tuple %d) = %d, direct = %d",
						fig.ID, name, i, g, w)
				}
			}
			for _, pred := range samplePredicates(opts.Cardinality) {
				if g, w := viaRegistry.Route(pred), direct.Route(pred); !routesEqual(g, w) {
					t.Fatalf("fig %s/%s: Route(%v) = %+v, direct = %+v",
						fig.ID, name, pred, g, w)
				}
			}
		}
	}
}
