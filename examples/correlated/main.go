// Correlated reproduces the Section 4 scenario of the paper: an
// Emp(ss#, name, age, salary, dept_no) relation whose partitioning
// attributes — age and salary — are highly correlated ("the salary of an
// employee increases proportionally to his/her age"). It shows the three
// effects the paper describes:
//
//  1. BERD localizes secondary-attribute queries to a single processor
//     when the attributes are correlated, versus ~11 processors when they
//     are not;
//  2. MAGIC's grid directory ends up with empty off-diagonal entries, so
//     the optimizer directs queries to far fewer processors than the
//     assignment anticipated; and
//  3. without the rebalancing heuristic the diagonal concentrates tuples
//     on a few processors, while the hill climber brings the spread down
//     to the ~20% the paper reports for the worst case.
//
// Run with:
//
//	go run ./examples/correlated
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gamma"
	"repro/internal/storage"
	"repro/internal/workload"
)

const (
	card       = 20000
	processors = 32
	ageAttr    = storage.Unique2 // age: the clustered storage order
	salaryAttr = storage.Unique1 // salary: correlated with age
)

func main() {
	// Emp with salary ~ age: the generator's correlation window bounds how
	// far a salary rank may stray from the age rank.
	emp := storage.GenerateWisconsin(storage.GenSpec{
		Name: "Emp", Cardinality: card, CorrelationWindow: 50, Seed: 3,
	})
	uncorrelated := storage.GenerateWisconsin(storage.GenSpec{
		Name: "EmpShuffled", Cardinality: card, CorrelationWindow: 0, Seed: 3,
	})

	fmt.Println("== BERD: processors holding the tuples of a 10-value age range ==")
	for _, rel := range []*storage.Relation{uncorrelated, emp} {
		berd := core.NewBERDForRelation(rel, salaryAttr, []int{ageAttr}, processors)
		homes := map[int]bool{}
		for _, t := range rel.Tuples {
			if v := t.Attrs[ageAttr]; v >= 10000 && v < 10010 {
				homes[berd.HomeOf(&t)] = true
			}
		}
		fmt.Printf("  %-12s -> %d distinct processors (plus 1 auxiliary fragment)\n",
			rel.Name, len(homes))
	}

	fmt.Println("\n== MAGIC: directory occupancy and routing under correlation ==")
	mix := workload.LowLow(card)
	cfg := gamma.DefaultConfig()
	specs := workload.EstimateSpecs(mix, card, cfg.HW, cfg.Costs)
	pp := workload.PlanParamsFor(card, processors, cfg.Costs)
	for _, rel := range []*storage.Relation{uncorrelated, emp} {
		magic, err := core.BuildMAGIC(rel, []int{salaryAttr, ageAttr}, specs, pp, nil)
		if err != nil {
			log.Fatal(err)
		}
		empty := 0
		for flat := 0; flat < magic.Grid().NumCells(); flat++ {
			if magic.Grid().CellCount(flat) == 0 {
				empty++
			}
		}
		qAge := magic.Route(core.Predicate{Attr: ageAttr, Lo: 10000, Hi: 10009})
		qSal := magic.Route(core.Predicate{Attr: salaryAttr, Lo: 10000, Hi: 10000})
		fmt.Printf("  %-12s %5.1f%% empty cells; age-range query -> %d procs, "+
			"salary lookup -> %d procs\n",
			rel.Name, 100*float64(empty)/float64(magic.Grid().NumCells()),
			len(qAge.Participants), len(qSal.Participants))
	}

	fmt.Println("\n== Rebalancing the worst case (identical attribute values) ==")
	identical := storage.GenerateWisconsin(storage.GenSpec{
		Name: "EmpIdentical", Cardinality: card, CorrelationWindow: 1, Seed: 3,
	})
	for _, disable := range []bool{true, false} {
		magic, err := core.BuildMAGIC(identical, []int{salaryAttr, ageAttr}, specs, pp,
			&core.MagicOptions{DisableRebalance: disable})
		if err != nil {
			log.Fatal(err)
		}
		min, max, mean := core.LoadSpread(magic.Owners(), magic.CellCounts(), processors)
		label := "with rebalancing   "
		if disable {
			label = "without rebalancing"
		}
		fmt.Printf("  %s: min=%d max=%d mean=%.0f tuples/processor (spread %.0f%%, %d swaps)\n",
			label, min, max, mean, 100*float64(max-min)/float64(max), magic.RebalanceSwaps())
	}

	fmt.Println("\n== Throughput, age-range + salary-lookup mix at MPL 32 ==")
	for _, rel := range []*storage.Relation{uncorrelated, emp} {
		for _, build := range []func() (core.Placement, error){
			func() (core.Placement, error) {
				return core.BuildMAGIC(rel, []int{salaryAttr, ageAttr}, specs, pp, nil)
			},
			func() (core.Placement, error) {
				return core.NewBERDForRelation(rel, salaryAttr, []int{ageAttr}, processors), nil
			},
		} {
			pl, err := build()
			if err != nil {
				log.Fatal(err)
			}
			machine, err := gamma.Build(rel, pl, cfg)
			if err != nil {
				log.Fatal(err)
			}
			res, err := machine.Run(mix, gamma.RunSpec{
				MPL: 32, WarmupQueries: 100, MeasureQueries: 400,
			})
			machine.Close()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-12s %-6s %7.1f queries/s (%.2f processors/query)\n",
				rel.Name, pl.Name(), res.ThroughputQPS, res.MeanProcsUsed)
		}
	}
}
