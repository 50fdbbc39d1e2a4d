package core

import (
	"fmt"
	"strings"

	"repro/internal/storage"
)

// StrategyParams carries everything a strategy builder may need.
// Simple strategies read only Relation/Processors/PrimaryAttr; BERD adds
// SecondaryAttrs; MAGIC additionally consumes the planning inputs (Specs,
// Plan), which the caller estimates from its workload — core stays
// workload-agnostic.
type StrategyParams struct {
	// Relation is the relation being declustered. Builders that derive
	// value distributions (range, BERD, MAGIC) require it.
	Relation *storage.Relation
	// Processors is the machine size the placement is built for.
	Processors int
	// PrimaryAttr is the primary partitioning attribute.
	PrimaryAttr int
	// SecondaryAttrs are the additional attributes multi-attribute
	// strategies cover (BERD's auxiliary relations, MAGIC's extra grid
	// dimensions).
	SecondaryAttrs []int
	// Specs are the workload's per-query-class resource estimates MAGIC
	// plans from (Section 3.2's QAve model inputs).
	Specs []QuerySpec
	// Plan are the planning-model system constants.
	Plan PlanParams
}

// strategies names every strategy BuildStrategy builds, sorted.
var strategies = []string{"berd", "hash", "magic", "range"}

// BuildStrategy constructs the named strategy. Missing inputs yield an
// error, never a panic; an unknown name yields an error listing every
// strategy.
func BuildStrategy(name string, p StrategyParams) (Placement, error) {
	if p.Processors <= 0 {
		return nil, fmt.Errorf("core: %s needs positive processors, got %d", name, p.Processors)
	}
	if p.Relation == nil && (name == "range" || name == "berd" || name == "magic") {
		return nil, fmt.Errorf("core: %s strategy requires a relation", name)
	}
	switch name {
	case "range":
		return NewRangeForRelation(p.Relation, p.PrimaryAttr, p.Processors), nil
	case "hash":
		return NewHash(p.PrimaryAttr, p.Processors), nil
	case "berd":
		return NewBERDForRelation(p.Relation, p.PrimaryAttr, p.SecondaryAttrs, p.Processors), nil
	case "magic":
		attrs := append([]int{p.PrimaryAttr}, p.SecondaryAttrs...)
		return BuildMAGIC(p.Relation, attrs, p.Specs, p.Plan, nil)
	}
	return nil, fmt.Errorf("core: unknown strategy %q (have: %s)", name, strings.Join(strategies, ", "))
}
