// Quickstart: decluster a relation three ways — MAGIC, BERD, and range —
// route the two query types of the paper's workload, and measure throughput
// on the simulated 32-processor Gamma machine.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gamma"
	"repro/internal/storage"
	"repro/internal/workload"
)

func main() {
	// 1. A 20,000-tuple Wisconsin relation with uncorrelated unique1 (A)
	//    and unique2 (B) attributes.
	const card, processors = 20000, 32
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: card, Seed: 42})
	fmt.Printf("relation %q: %d tuples, %d attributes\n\n",
		rel.Name, rel.Cardinality(), storage.NumAttrs)

	// 2. The paper's low-low workload: 50% single-tuple lookups on A (via a
	//    non-clustered index), 50% ten-tuple ranges on B (clustered index).
	mix := workload.LowLow(card)
	cfg := gamma.DefaultConfig()

	// 3. Build the three placements. MAGIC needs the workload's estimated
	//    resource requirements to size fragments (Section 3.2 of the paper).
	specs := workload.EstimateSpecs(mix, card, cfg.HW, cfg.Costs)
	pp := workload.PlanParamsFor(card, processors, cfg.Costs)
	magic, err := core.BuildMAGIC(rel, []int{storage.Unique1, storage.Unique2}, specs, pp, nil)
	if err != nil {
		log.Fatal(err)
	}
	berd := core.NewBERDForRelation(rel, storage.Unique1, []int{storage.Unique2}, pp.Processors)
	rng := core.NewRangeForRelation(rel, storage.Unique1, pp.Processors)

	dims := magic.Dims()
	fmt.Printf("MAGIC built a %dx%d grid directory (%d fragments of <=%d tuples)\n\n",
		dims[0], dims[1], magic.Grid().NumCells(), magic.Plan().FC)

	// 4. Routing: ask each strategy where two predicates must execute.
	for _, pred := range []core.Predicate{
		{Attr: storage.Unique1, Lo: 10000, Hi: 10000}, // exact match on A
		{Attr: storage.Unique2, Lo: 5000, Hi: 5009},   // 10-tuple range on B
	} {
		fmt.Printf("%v:\n", pred)
		for _, pl := range []core.Placement{magic, berd, rng} {
			route := pl.Route(pred)
			switch {
			case len(route.Aux) > 0:
				fmt.Printf("  %-6s -> consult %d auxiliary fragment(s), then the owning processors\n",
					pl.Name(), len(route.Aux))
			default:
				fmt.Printf("  %-6s -> %d processor(s)\n", pl.Name(), len(route.Participants))
			}
		}
		fmt.Println()
	}

	// 5. Simulate a closed workload at multiprogramming level 16 and
	//    compare throughput.
	fmt.Println("simulated throughput at MPL 16 (low-low mix):")
	for _, pl := range []core.Placement{magic, berd, rng} {
		machine, err := gamma.Build(rel, pl, cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := machine.Run(mix, gamma.RunSpec{
			MPL: 16, WarmupQueries: 100, MeasureQueries: 400,
		})
		machine.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-6s %7.1f queries/s  (%.1f ms mean response, %.2f processors/query)\n",
			pl.Name(), res.ThroughputQPS, res.MeanResponseMS, res.MeanProcsUsed)
	}
}
