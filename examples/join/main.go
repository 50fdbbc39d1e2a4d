// Join demonstrates the Gamma substrate's parallel hash join and how the
// declustering decision determines its cost: joining TRADES with STOCK on
// the ticker key is network-free when both relations are hash-declustered
// on that key (co-located), while declustering either relation on any other
// attribute forces a full repartitioning of both inputs through the split
// tables. Declustering for selections (what the paper optimizes) and
// declustering for joins pull in different directions — this example makes
// the tension concrete.
//
// Run with:
//
//	go run ./examples/join
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gamma"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
)

const processors = 16

func main() {
	stock := storage.GenerateWisconsin(storage.GenSpec{
		Name: "stock", Cardinality: 8000, Seed: 21,
	})
	trades := storage.GenerateWisconsin(storage.GenSpec{
		Name: "trades", Cardinality: 3200, Seed: 22,
	})
	// Join trades with stock on the ticker key.
	join := plan.NewJoin(storage.Unique1, plan.NewScan("trades"), plan.NewScan("stock"))

	type setup struct {
		label    string
		stockPl  core.Placement
		tradesPl core.Placement
	}
	setups := []setup{
		{
			label:    "both hash-declustered on ticker (co-located)",
			stockPl:  core.NewHash(storage.Unique1, processors),
			tradesPl: core.NewHash(storage.Unique1, processors),
		},
		{
			label:    "stock range-declustered on price (repartitioned)",
			stockPl:  core.NewRangeForRelation(stock, storage.Unique2, processors),
			tradesPl: core.NewHash(storage.Unique1, processors),
		},
		{
			label:    "both range-declustered on price (repartitioned)",
			stockPl:  core.NewRangeForRelation(stock, storage.Unique2, processors),
			tradesPl: core.NewRangeForRelation(trades, storage.Unique2, processors),
		},
	}

	fmt.Printf("join trades (%d tuples) with stock (%d tuples) on the ticker key, %d processors:\n\n",
		trades.Cardinality(), stock.Cardinality(), processors)
	for _, su := range setups {
		machine, err := gamma.Build(stock, su.stockPl, gamma.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		if err := machine.AddRelation(trades, su.tradesPl); err != nil {
			log.Fatal(err)
		}
		before := sent(machine)
		res, err := machine.Query("joiner", join, sim.Time(30*60*sim.Second))
		if err != nil {
			log.Fatal(err)
		}
		packets := sent(machine) - before
		machine.Close()
		mode := "repartitioned"
		if exec.Colocated(su.tradesPl, su.stockPl, storage.Unique1) {
			mode = "co-located"
		}
		fmt.Printf("  %-48s %6d matches in %8.1fms (%s, %d operator packets)\n",
			su.label, res.Tuples, res.ResponseMS(), mode, packets)
	}
}

// sent sums packets transmitted by the operator nodes (excluding the host).
func sent(m *gamma.Machine) int64 {
	var t int64
	for i := range m.Nodes {
		t += m.Net.Sent(i)
	}
	return t
}
