// Command querytrace executes a single query under each declustering
// strategy on an otherwise idle machine and prints the full event trace —
// every CPU service, disk access, and network packet — so the execution
// paradigms of Sections 2–4 can be inspected side by side (range fanning
// out to every node, BERD's sequential two-step auxiliary lookup, MAGIC's
// grid-directory localization).
//
// Usage:
//
//	querytrace [flags]
//
//	-attr A|B         predicate attribute (default B)
//	-lo N -width W    predicate range [lo, lo+width)
//	-card N           relation cardinality (default 20000)
//	-procs N          processors (default 32)
//	-corr low|high    attribute correlation
//	-strategy s       run only one strategy (magic|berd|range|hash)
//	-quiet            summary only, no event trace; the summary ends with
//	                  the sim kernel's counters (events, process switches,
//	                  self-resumes, spawns, coroutines created and reused)
//	-trace-out FILE   write a Chrome trace-event JSON file (open it at
//	                  ui.perfetto.dev or chrome://tracing); each strategy
//	                  becomes one process row, each node×resource one track
//	-trace-jsonl FILE write raw trace events as JSON Lines
//	-critpath         print a critical-path latency breakdown per strategy:
//	                  the query's end-to-end time attributed to disk, CPU,
//	                  network and buffer activity, with uncovered time
//	                  reported as queue-wait
//	-frags            print a per-fragment usage breakdown per strategy:
//	                  which fragments the query touched, pages and busy
//	                  time per fragment, and which queries made each
//	                  fragment hot (per-query attribution)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gamma"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

func main() {
	var (
		attrName   = flag.String("attr", "B", "predicate attribute: A or B")
		lo         = flag.Int64("lo", 1000, "predicate lower bound")
		width      = flag.Int64("width", 10, "predicate width (tuples)")
		card       = flag.Int("card", 20000, "relation cardinality")
		procs      = flag.Int("procs", 32, "processors")
		corr       = flag.String("corr", "low", "attribute correlation: low or high")
		strategy   = flag.String("strategy", "", "run a single strategy")
		quiet      = flag.Bool("quiet", false, "suppress the event trace")
		traceOut   = flag.String("trace-out", "", "write Chrome trace-event JSON to this file")
		traceJSONL = flag.String("trace-jsonl", "", "write trace events as JSON Lines to this file")
		critPath   = flag.Bool("critpath", false, "print the critical-path latency breakdown")
		frags      = flag.Bool("frags", false, "print the per-fragment usage breakdown")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "querytrace: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	var attr int
	switch *attrName {
	case "A", "a":
		attr = storage.Unique1
	case "B", "b":
		attr = storage.Unique2
	default:
		fatal(fmt.Errorf("unknown attribute %q (want A or B)", *attrName))
	}
	pred := core.Predicate{Attr: attr, Lo: *lo, Hi: *lo + *width - 1}

	window := 0
	if *corr == "high" {
		window = *card / 1000
		if window < 1 {
			window = 1
		}
	}
	rel := storage.GenerateWisconsin(storage.GenSpec{
		Cardinality: *card, CorrelationWindow: window, Seed: 1,
	})
	mix := workload.LowLow(*card)
	opts := experiments.QuickScale()
	opts.Cardinality = *card
	opts.Processors = *procs

	strategies := []string{experiments.StrategyMAGIC, experiments.StrategyBERD, experiments.StrategyRange}
	if *strategy != "" {
		strategies = []string{*strategy}
	}

	var chrome *obs.ChromeTracer
	if *traceOut != "" {
		chrome = obs.NewChromeTracer()
	}
	var jsonl *obs.JSONLSink
	if *traceJSONL != "" {
		f, err := os.Create(*traceJSONL)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		jsonl = obs.NewJSONLSink(f)
	}

	for _, name := range strategies {
		pl, err := experiments.BuildPlacement(name, rel, mix, opts)
		if err != nil {
			fatal(err)
		}
		machine, err := gamma.Build(rel, pl, gamma.DefaultConfig())
		if err != nil {
			fatal(err)
		}
		node := plan.NewIndexScan(rel.Name, pred, mix.AccessChooser()(pred))
		fmt.Printf("=== %s: %v ===\n", name, pred)
		fmt.Print(node.Explain())
		var sinks obs.MultiSink
		if !*quiet {
			sinks = append(sinks, obs.SinkFunc(printEvent))
		}
		if chrome != nil {
			chrome.BeginProcess(name)
			sinks = append(sinks, chrome)
		}
		if jsonl != nil {
			sinks = append(sinks, jsonl)
		}
		var coll *obs.Collector
		if *critPath || *frags {
			coll = &obs.Collector{}
			sinks = append(sinks, coll)
		}
		if len(sinks) == 1 {
			machine.Eng.SetSink(sinks[0])
		} else if len(sinks) > 1 {
			machine.Eng.SetSink(sinks)
		}
		res, err := machine.Query("probe", node, sim.Time(60*sim.Second))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("--> %d tuples in %.3fms using %d processors (%d auxiliary)\n",
			res.Tuples, res.ResponseMS(), res.ProcessorsUsed, res.AuxProcessors)
		fmt.Printf("    kernel: %v\n\n", machine.Eng.Stats())
		if *critPath {
			printCritPath(coll.Events())
		}
		if *frags {
			// The result's own attribution — under chain-backup rerouting the
			// serving node can differ from the fragment's home, and this is
			// the list the fragment table must agree with.
			fmt.Println("served by:")
			for _, op := range res.ServedBy {
				fmt.Printf("  %s\n", op)
			}
			fmt.Println()
			printFragments(coll.Events())
		}
		machine.Close()
	}

	if jsonl != nil {
		if err := jsonl.Err(); err != nil {
			fatal(err)
		}
	}
	if chrome != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := chrome.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d trace events to %s (load at ui.perfetto.dev)\n", chrome.Len(), *traceOut)
	}
}

// printCritPath renders the critical-path breakdown of the collected trace:
// one row per query plus a percentage row attributing end-to-end latency to
// each resource class, with time covered by no resource span as queue-wait.
func printCritPath(events []obs.TraceEvent) {
	bds := obs.AnalyzeCriticalPath(events)
	if len(bds) == 0 {
		fmt.Println("critical path: no query spans in trace")
		return
	}
	ms := func(ns int64) string { return fmt.Sprintf("%.3f", float64(ns)/1e6) }
	fmt.Println("critical path (ms):")
	fmt.Printf("  %-8s %10s %10s %10s %10s %10s %10s\n",
		"query", "total", "disk", "cpu", "net", "buffer", "wait")
	for _, b := range bds {
		fmt.Printf("  %-8d %10s %10s %10s %10s %10s %10s\n",
			b.QueryID, ms(b.TotalNS), ms(b.DiskNS), ms(b.CPUNS),
			ms(b.NetNS), ms(b.BufferNS), ms(b.WaitNS))
	}
	s := obs.SummarizePaths(bds)
	if s.TotalNS > 0 {
		pct := func(ns int64) string {
			return fmt.Sprintf("%.1f%%", 100*float64(ns)/float64(s.TotalNS))
		}
		fmt.Printf("  %-8s %10s %10s %10s %10s %10s %10s\n\n",
			"share", "", pct(s.DiskNS), pct(s.CPUNS),
			pct(s.NetNS), pct(s.BufferNS), pct(s.WaitNS))
	}
}

// printFragments renders the per-fragment usage breakdown of the collected
// trace: each fragment the query set touched, hottest first by busy time,
// with the per-query attribution underneath — the answer to "which queries
// made fragment F hot".
func printFragments(events []obs.TraceEvent) {
	uses := obs.AnalyzeFragments(events)
	if len(uses) == 0 {
		fmt.Println("fragments: no fragment spans in trace")
		return
	}
	fmt.Println("fragment usage (hottest first):")
	fmt.Printf("  %-20s %6s %8s %8s %10s\n", "fragment", "ops", "pages", "tuples", "busy ms")
	for _, u := range uses {
		fmt.Printf("  %-20s %6d %8d %8d %10.3f\n",
			fmt.Sprintf("%s@n%d", u.Name, u.Node), u.Ops, u.Pages, u.Tuples,
			float64(u.BusyNS)/1e6)
		for _, q := range u.Queries {
			fmt.Printf("    query %-6d %6d ops %8d pages %10.3f ms\n",
				q.QueryID, q.Ops, q.Pages, float64(q.BusyNS)/1e6)
		}
	}
	fmt.Println()
}

// printEvent renders one trace event in the classic querytrace text format:
// timestamp, the emitting track (category + node), and the event name with
// duration and detail. String formatting lives here, at the edge — the
// simulation emits typed events only.
func printEvent(ev obs.TraceEvent) {
	who := ev.Category
	if ev.Node != obs.NoNode {
		who = fmt.Sprintf("%s%d", ev.Category, ev.Node)
	}
	what := ev.Name
	if ev.Kind == obs.KindSpan {
		what = fmt.Sprintf("%s [%.3fms]", what, float64(ev.Dur)/1e6)
	}
	if ev.Detail != "" {
		what += " (" + ev.Detail + ")"
	}
	fmt.Printf("  %10.3fms  %-12s %s\n", float64(ev.T)/1e6, who, what)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "querytrace:", err)
	os.Exit(1)
}
