// Command magicplan is the design-time planner: given a workload mix, a
// relation size and a machine size, it prints everything MAGIC computes
// before any data moves — the QAve aggregates, M and the fragment
// cardinality FC (Section 3.2), the per-attribute Mi values (Equation 3),
// Equation 4's Fraction_Splits alongside the Mi-proportional split weights
// the construction uses, and (with -build) the constructed directory shape
// and the quality of the processor assignment.
//
// Usage:
//
//	magicplan [flags]
//
//	-mix low-low|low-low-wider|low-moderate|moderate-low|moderate-moderate
//	-card N      relation cardinality (default 100000)
//	-procs N     processors (default 32)
//	-corr low|high
//	-seed N
//	-build       build the directory and report assignment quality
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/hw"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/workload"
)

func main() {
	var (
		mixName = flag.String("mix", "low-low", "workload mix")
		card    = flag.Int("card", 100000, "relation cardinality")
		procs   = flag.Int("procs", 32, "processors")
		corr    = flag.String("corr", "low", "attribute correlation: low or high")
		seed    = flag.Int64("seed", 1, "generation seed")
		build   = flag.Bool("build", false, "build the directory and report assignment quality")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "magicplan: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	mix, err := mixByName(*mixName, *card)
	if err != nil {
		fatal(err)
	}
	hwp := hw.DefaultParams()
	costs := exec.DefaultCosts()
	specs := workload.EstimateSpecs(mix, *card, hwp, costs)
	pp := workload.PlanParamsFor(*card, *procs, costs)

	plan, err := core.ComputePlan(specs, pp)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("Workload %q on %d processors, %d-tuple relation (CP=%.2fms, CS=%.4fms)\n\n",
		mix.Name, *procs, *card, pp.CPms, pp.CSms)

	qt := stats.NewTable("Estimated per-class resource requirements (Section 3.2 inputs)",
		"class", "attr", "tuples", "freq", "CPU ms", "Disk ms", "Net ms")
	for _, s := range specs {
		qt.AddRow(s.Name, storage.AttrName(s.Attr), s.TuplesPerQuery, s.Frequency,
			s.CPUms, s.DiskMS, s.NetMS)
	}
	fmt.Println(qt.String())

	fmt.Printf("QAve: tuples=%.2f CPU=%.2fms Disk=%.2fms Net=%.2fms\n",
		plan.TuplesPerQAve, plan.CPUAveMS, plan.DiskAveMS, plan.NetAveMS)
	fmt.Printf("M  (ideal processors for QAve)   = %.3f (numeric optimum over Eq. 1: %d)\n",
		plan.M, plan.OptimalM(pp))
	fmt.Printf("FC (fragment cardinality)        = %d tuples\n", plan.FC)
	for _, attr := range []int{storage.Unique1, storage.Unique2} {
		if mi, ok := plan.Mi[attr]; ok {
			fmt.Printf("Mi[%s] (Eq. 3)              = %.2f processors\n",
				storage.AttrName(attr), mi)
		}
	}
	for _, attr := range []int{storage.Unique1, storage.Unique2} {
		if fs, ok := plan.FractionSplits[attr]; ok {
			fmt.Printf("Fraction_Splits[%s] (Eq. 4) = %.4f (split weight used: %.4f)\n",
				storage.AttrName(attr), fs, plan.SplitWeights[attr])
		}
	}

	if !*build {
		return
	}
	window := 0
	if *corr == "high" {
		window = *card / 1000
		if window < 1 {
			window = 1
		}
	}
	rel := storage.GenerateWisconsin(storage.GenSpec{
		Cardinality: *card, CorrelationWindow: window, Seed: *seed,
	})
	magic, err := core.BuildMAGIC(rel, []int{storage.Unique1, storage.Unique2}, specs, pp, nil)
	if err != nil {
		fatal(err)
	}
	dims := magic.Dims()
	fmt.Printf("\nConstructed directory: %dx%d (%d entries, %d overflow, %d rebalance swaps)\n",
		dims[0], dims[1], magic.Grid().NumCells(), magic.Grid().OverflowCells(),
		magic.RebalanceSwaps())
	min, max, mean := core.LoadSpread(magic.Owners(), magic.CellCounts(), *procs)
	fmt.Printf("Tuple balance: min=%d max=%d mean=%.1f (spread %.1f%%)\n",
		min, max, mean, 100*float64(max-min)/float64(max))
	for d, attr := range magic.Attrs() {
		dist := core.NonEmptySliceDistinct(magic.Owners(), dims, magic.CellCounts(), d)
		var acc stats.Accumulator
		for _, v := range dist {
			acc.Add(float64(v))
		}
		fmt.Printf("Distinct processors per non-empty %s slice: mean %.1f (min %.0f, max %.0f)\n",
			storage.AttrName(attr), acc.Mean(), acc.Min(), acc.Max())
	}

	fmt.Println("\nRouting preview (predicates centred on the domain midpoint):")
	for _, cls := range mix.Classes {
		pred := core.Predicate{Attr: cls.Attr,
			Lo: int64(*card / 2), Hi: int64(*card/2 + cls.Tuples - 1)}
		route := magic.Route(pred)
		fmt.Printf("  %-14s %v -> %d processors (%d directory entries searched)\n",
			cls.Name, pred, len(route.Participants), route.EntriesSearched)
	}
}

func mixByName(name string, card int) (workload.Mix, error) {
	switch name {
	case "low-low":
		return workload.LowLow(card), nil
	case "low-low-wider":
		return workload.LowLowWider(card), nil
	case "low-moderate":
		return workload.LowModerate(card), nil
	case "moderate-low":
		return workload.ModerateLow(card), nil
	case "moderate-moderate":
		return workload.ModerateModerate(card), nil
	default:
		return workload.Mix{}, fmt.Errorf("unknown mix %q", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "magicplan:", err)
	os.Exit(1)
}
