// Command declusterbench regenerates the paper's evaluation figures: for
// each figure of Section 7 it sweeps the multiprogramming level over the
// MAGIC, BERD and range declustering strategies on the simulated Gamma
// machine and prints the throughput series (and, with -detail, per-point
// diagnostics). The (figure, strategy, MPL) runs execute concurrently on a
// bounded worker pool; results are identical whatever the worker count.
//
// Every run is one scenario (experiments.RunScenario). At most one
// campaign flag — -open, -faults, -share or -elastic — replaces the closed
// figure sweep with another campaign; everything else composes with any of
// them: the fault flags -kill-disk, -kill-node and -mtbf, telemetry, heat,
// -scaleout (a machine-size sweep run afterwards), the manifest and the
// profilers. -json and -compare archive the closed figure sweep only.
//
// Usage:
//
//	declusterbench [flags]
//
//	-fig 8a,8b,...   figures to run (default: all; "none" skips figures)
//	-scale paper     "paper" (100k tuples, MPL 1..64) or "quick"
//	-card N          override relation cardinality
//	-procs N         override processor count
//	-mpl 1,8,64      override the MPL sweep
//	-measure N       override queries measured per point
//	-warmup N        override warm-up queries per point
//	-seed N          experiment seed (default 1; an explicit -seed 0 is honored)
//	-parallel N      worker pool size (default 0 = GOMAXPROCS; results
//	                 do not depend on N)
//	-timeout D       wall-clock budget per (strategy, MPL) run, e.g. 10m
//	-manifest FILE   write the run manifest (per-job wall times, worker
//	                 count, speedup, failure records) as JSON
//	-detail          print per-point diagnostics
//	-node-stats      print each strategy's per-node utilization table at the
//	                 highest MPL of the sweep (execution-skew breakdown)
//	-csv             emit CSV instead of aligned tables
//	-plot            draw each figure as an ASCII chart
//	-json FILE       write the closed figure results to a JSON archive
//	-compare FILE    compare against a previous archive; exit 1 on
//	                 throughput drifts beyond -tolerance (default 0.05;
//	                 0 means exact)
//	-scaleout        also run the machine-size sweep (8..64 processors at
//	                 MPL 2P on figure 8a's mix)
//
// Open-system serving mode (DESIGN.md §9): instead of the closed MPL
// sweep, admit queries from an open arrival process through the admission
// controller and report sustainable throughput, tail latency and shed rate
// per strategy and offered load, ending with a "serving summary" block per
// figure:
//
//	-open            run the open-system serving campaign (default figure
//	                 scope: 8a when -fig is not given)
//	-arrival K       arrival process: poisson (default), bursty, or diurnal
//	-lambda L        comma-separated offered loads in queries/second
//	                 (default 100,200,400,800)
//	-tenants N       tenant count for weighted round-robin dispatch (default 4)
//	-slo-ms MS       latency SLO for goodput accounting (default 1000)
//	-governor N      MPL governor: concurrent-execution cap (default 64)
//
// Time-resolved telemetry (DESIGN.md §10): windowed time-series sampling on
// every machine the campaign builds, goodput/skew-over-time tables and SLO
// burn lines per figure, CSV export, and a live OpenMetrics endpoint:
//
//	-ts-window D     arm telemetry with sampling window D (e.g. 250ms)
//	-ts-dir DIR      write one CSV time-series file per run into DIR,
//	                 named after its job ID (implies -ts-window 250ms when
//	                 not given)
//	-metrics-addr A  serve OpenMetrics on A at /metrics while running
//	                 (implies telemetry); each point registers under its
//	                 job ID as it completes
//	-metrics-linger D keep the /metrics endpoint up D after the campaign
//	                 (lets scrapers collect the final state; CI uses this)
//
// Fragment heat (DESIGN.md §11): per-fragment access accounting, heatmap
// tables with concentration indices, hot-fragment reports, and
// deterministic CSV export:
//
//	-heatmap         arm fragment heat accounting; print per-strategy
//	                 heatmap tables and a hot-fragments line per figure
//	-heatmap-dir DIR write one canonical-order heat CSV per (figure,
//	                 strategy) into DIR (implies -heatmap)
//	-heat-topk K     hot-fragment report size (default 5; implies -heatmap)
//
// Shared scans (DESIGN.md §12): predicate-grouped batching of concurrent
// selections into shared disk passes, measured off-vs-on per strategy under
// a hot-spot overlay:
//
//	-share           run the shared-scan campaign instead of the figure
//	                 campaign (default figure scope: 11a when -fig is not
//	                 given); prints a per-point off/on table plus greppable
//	                 "sharing figX/strategy mpl=N: ..." summary lines
//	-share-window D  batching window in simulated time (default: the gamma
//	                 default, 5ms)
//
// Both runs of each sharing point see the same faults.
//
// Elastic membership (DESIGN.md §13): serve an open arrival process while
// the membership controller joins a standby node and decommissions a member
// mid-run, restaging each strategy's own placement at the new node count
// behind a throttled background copy and a dual-read cutover:
//
//	-elastic         run the elasticity campaign (default figure scope: 8a
//	                 when -fig is not given); prints a per-point table of
//	                 time-to-rebalance, data moved and goodput dip plus one
//	                 greppable "rebalance summary: ..." line per point
//	-join-at D       schedule one standby join at offset D (default 300ms;
//	                 negative disables the join)
//	-leave-at D      schedule the decommission of -leave-node at offset D
//	                 (default 3x -join-at; negative disables it)
//	-leave-node N    the member decommissioned at -leave-at (default 1)
//	-migrate-rate R  throttle the background copier to R pages/second
//	                 (default: the rebalance package default)
//	-sizes 4,8       comma-separated initial cluster sizes (default -procs)
//
// The elasticity campaign reuses -arrival, -tenants, -slo-ms and -governor;
// -lambda's first value is the offered load (default 100).
//
// Fault injection (all fault flags imply chained replicas and arm the
// scheduler's fault handling; see DESIGN.md §8):
//
//	-faults 0,1,2    run the degraded-mode campaign instead of the figure
//	                 campaign: for each selected figure, sweep each strategy
//	                 with k disks fail-stopped for each listed k (at most
//	                 the processor count), on top of the other fault flags
//	-mtbf D          arm stochastic transient disk read errors with mean
//	                 time D between faults per disk (e.g. -mtbf 500ms)
//	-kill-disk L     fail-stop disks: comma-separated "n@t[+d]" items, e.g.
//	                 "3@10ms" (node 3's disk dies 10ms in) or "0@5ms+200ms"
//	                 (repaired 200ms later)
//	-kill-node L     crash nodes, same "n@t[+d]" syntax (restart after +d,
//	                 otherwise down for the rest of the run)
//
// Runs with faults armed print a summary line
// "fault outcomes: ok=N retried=N timed_out=N failed=N" that CI greps.
//
// Profiling the simulator itself:
//
//	-cpuprofile FILE  write a pprof CPU profile of the whole run
//	-memprofile FILE  write a pprof heap profile at exit
//	-httppprof ADDR   serve net/http/pprof on ADDR (e.g. localhost:6060)
//	                  for live inspection of long campaigns
//
// Exit status is non-zero when any simulation job fails or when -compare
// finds throughput drifts beyond the tolerance, so both can gate CI.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		figList     = flag.String("fig", "", "comma-separated figure ids (default: all)")
		scale       = flag.String("scale", "paper", `"paper" or "quick"`)
		card        = flag.Int("card", 0, "relation cardinality override")
		procs       = flag.Int("procs", 0, "processor count override")
		mplList     = flag.String("mpl", "", "comma-separated MPL sweep override")
		measure     = flag.Int("measure", 0, "measured queries per point override")
		warmup      = flag.Int("warmup", 0, "warm-up queries per point override")
		seed        = flag.Int64("seed", 0, "experiment seed override (0 is a valid seed when given explicitly)")
		parallel    = flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS)")
		timeout     = flag.Duration("timeout", 0, "wall-clock budget per (strategy, MPL) run (0 = none)")
		manifestOut = flag.String("manifest", "", "write the JSON run manifest to this file")
		detail      = flag.Bool("detail", false, "print per-point diagnostics")
		plot        = flag.Bool("plot", false, "draw each figure as an ASCII chart")
		jsonOut     = flag.String("json", "", "write results to a JSON archive")
		compare     = flag.String("compare", "", "compare against a previous JSON archive")
		tolerance   = flag.Float64("tolerance", 0.05, "relative drift threshold for -compare (0: exact match)")
		csv         = flag.Bool("csv", false, "emit CSV")
		scaleout    = flag.Bool("scaleout", false, "run the machine-size sweep too")
		nodeStats   = flag.Bool("node-stats", false, "print per-node utilization tables (highest MPL)")
		open        = flag.Bool("open", false, "run the open-system serving campaign instead of the closed MPL sweep")
		arrival     = flag.String("arrival", "poisson", "open arrival process: poisson, bursty, or diurnal")
		lambdaList  = flag.String("lambda", "", "comma-separated offered loads in q/s (default 100,200,400,800)")
		tenants     = flag.Int("tenants", 0, "open-system tenant count (default 4)")
		sloMS       = flag.Float64("slo-ms", 0, "open-system latency SLO in milliseconds (default 1000)")
		governor    = flag.Int("governor", 0, "open-system MPL governor: concurrent-execution cap (default 64)")
		tsWindow    = flag.Duration("ts-window", 0, "arm windowed telemetry with this sampling window (e.g. 250ms; 0 = off)")
		tsDir       = flag.String("ts-dir", "", "write per-point CSV time-series files into this directory (implies telemetry)")
		metricsAddr = flag.String("metrics-addr", "", "serve live OpenMetrics on this address at /metrics (implies telemetry)")
		metricsLing = flag.Duration("metrics-linger", 0, "keep the /metrics endpoint up this long after the campaign")
		heatmap     = flag.Bool("heatmap", false, "arm fragment heat accounting and print per-strategy heatmap tables")
		heatmapDir  = flag.String("heatmap-dir", "", "write per-strategy fragment heat CSVs into this directory (implies -heatmap)")
		heatTopK    = flag.Int("heat-topk", 0, "hot-fragment report size (default 5; implies -heatmap)")
		share       = flag.Bool("share", false, "run the shared-scan campaign (sharing off vs on per strategy)")
		elastic     = flag.Bool("elastic", false, "run the elasticity campaign (join + decommission under open load)")
		joinAt      = flag.Duration("join-at", 0, "standby join offset (default 300ms; negative disables)")
		leaveAt     = flag.Duration("leave-at", 0, "decommission offset (default 3x -join-at; negative disables)")
		leaveNode   = flag.Int("leave-node", 0, "member decommissioned at -leave-at (default 1)")
		migrateRate = flag.Int("migrate-rate", 0, "background copier throttle in pages/second (0 = rebalance default)")
		sizeList    = flag.String("sizes", "", "comma-separated initial cluster sizes (default -procs)")
		shareWindow = flag.Duration("share-window", 0, "shared-scan batching window in simulated time (0 = gamma default)")
		faultsKs    = flag.String("faults", "", `degraded-mode campaign: comma-separated failed-disk counts, e.g. "0,1,2"`)
		mtbf        = flag.Duration("mtbf", 0, "mean time between stochastic transient disk read errors (0 = off)")
		killDisk    = flag.String("kill-disk", "", `fail-stop disks: comma-separated "n@t[+d]" items, e.g. "3@10ms" or "0@5ms+200ms"`)
		killNode    = flag.String("kill-node", "", `crash nodes: comma-separated "n@t[+d]" items (restart after +d, else down for the run)`)
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a pprof heap profile to this file")
		httpPprof   = flag.String("httppprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		// A stray word ends flag parsing, so the flags after it would be
		// dropped silently.
		fmt.Fprintf(os.Stderr, "declusterbench: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "declusterbench:", err)
				return
			}
			runtime.GC() // settle the heap so the profile reflects retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "declusterbench:", err)
			}
			f.Close()
		}()
	}
	if *httpPprof != "" {
		go func() {
			if err := http.ListenAndServe(*httpPprof, nil); err != nil {
				fmt.Fprintln(os.Stderr, "declusterbench: pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof server on http://%s/debug/pprof/\n", *httpPprof)
	}
	seedSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})

	opts, err := buildOptions(*scale, *card, *procs, *mplList, *measure, *warmup, *seed, seedSet)
	if err != nil {
		return fail(err)
	}
	figs, err := selectFigures(*figList)
	if err != nil {
		return fail(err)
	}
	campaigns := 0
	for _, on := range []bool{*open, *faultsKs != "", *share, *elastic} {
		if on {
			campaigns++
		}
	}
	if campaigns > 1 {
		return fail(fmt.Errorf("at most one of -open, -faults, -share and -elastic per run"))
	}
	// The archive holds closed-loop throughputs per (figure, strategy, MPL);
	// any other run would write an empty one that no comparison can fail.
	if (*jsonOut != "" || *compare != "") && (campaigns > 0 || len(figs) == 0) {
		return fail(fmt.Errorf("-json and -compare need the closed figure campaign (no -open, -faults, -share, -elastic or -fig none)"))
	}
	if *leaveNode < 0 {
		return fail(fmt.Errorf("negative -leave-node %d", *leaveNode))
	}
	oopts, err := buildOpenOptions(*arrival, *lambdaList, *tenants, *sloMS, *governor)
	if err != nil {
		return fail(err)
	}
	spec, err := buildFaultSpec(*mtbf, *killDisk, *killNode)
	if err != nil {
		return fail(err)
	}
	if spec.Enabled() {
		opts.ArmFaults(spec, true)
	}
	if *migrateRate < 0 {
		return fail(fmt.Errorf("negative -migrate-rate %d", *migrateRate))
	}
	sizes, err := parseSizes(*sizeList)
	if err != nil {
		return fail(err)
	}
	if *tolerance < 0 {
		return fail(fmt.Errorf("negative -tolerance %g", *tolerance))
	}
	if *shareWindow < 0 {
		return fail(fmt.Errorf("negative -share-window %v", *shareWindow))
	}
	if *tsWindow < 0 {
		return fail(fmt.Errorf("negative -ts-window %v", *tsWindow))
	}
	if *tsWindow > 0 || *tsDir != "" || *metricsAddr != "" {
		w := *tsWindow
		if w <= 0 {
			w = 250 * time.Millisecond
		}
		opts.ArmTelemetry(float64(w)/float64(time.Millisecond), 0, 0)
	}
	if *heatTopK < 0 {
		return fail(fmt.Errorf("negative -heat-topk %d", *heatTopK))
	}
	if *heatmap || *heatmapDir != "" || *heatTopK > 0 {
		opts.ArmHeat(*heatTopK)
	}
	var hub *obs.Hub
	if *metricsAddr != "" {
		hub = obs.NewHub()
		mux := http.NewServeMux()
		mux.Handle("/metrics", hub)
		// Listen synchronously so the endpoint is scrapeable the moment the
		// banner prints (CI polls it right after startup).
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fail(err)
		}
		go func() {
			if err := http.Serve(ln, mux); err != nil {
				fmt.Fprintln(os.Stderr, "declusterbench: metrics server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "serving OpenMetrics on http://%s/metrics\n", ln.Addr())
	}

	// The campaign flag selects the scenario; everything else composes
	// with it. A campaign other than the closed figure sweep defaults to
	// one figure: 8a, or 11a for sharing, where batch overlap is most
	// visible.
	var sc experiments.Scenario
	label, defaultFig := "figures", ""
	switch {
	case *open:
		sc = experiments.Scenario{Figures: figs, Options: opts, Open: &oopts}
		label, defaultFig = "open", "8a"
	case *elastic:
		eopts := experiments.ElasticOptions{
			Arrival:      oopts.Arrival,
			Tenants:      oopts.Tenants,
			SLOms:        oopts.SLOms,
			MaxInService: oopts.MaxInService,
			JoinAt:       sim.Duration(*joinAt),
			LeaveAt:      sim.Duration(*leaveAt),
			LeaveNode:    *leaveNode,
			MigrateRate:  *migrateRate,
			Sizes:        sizes,
		}
		if len(oopts.Lambdas) > 0 {
			eopts.Lambda = oopts.Lambdas[0]
		}
		sc = experiments.ElasticScenario(figs, opts, eopts)
		label, defaultFig = "elastic", "8a"
	case *faultsKs != "":
		ks, err := parseKs(*faultsKs)
		if err != nil {
			return fail(err)
		}
		if sc, err = experiments.DegradedScenario(figs, ks, opts); err != nil {
			return fail(err)
		}
		label = "degraded"
	case *share:
		sc = experiments.SharingScenario(figs, float64(*shareWindow)/float64(time.Millisecond), opts)
		label, defaultFig = "sharing", "11a"
	default:
		sc = experiments.Scenario{Figures: figs, Options: opts}
	}
	if *figList == "" && defaultFig != "" {
		fig, err := experiments.FigureByID(defaultFig)
		if err != nil {
			return fail(err)
		}
		sc.Figures = []experiments.Figure{fig}
	}
	if label != "figures" && len(sc.Figures) == 0 {
		return fail(fmt.Errorf(`the %s campaign needs at least one figure (drop "-fig none")`, label))
	}

	exit := 0
	var manifests []harness.Manifest
	runScenario := func(sc experiments.Scenario, label string) experiments.ScenarioResult {
		fmt.Fprintf(os.Stderr, "running the %s campaign (%d figures) on %d workers...\n",
			label, len(sc.Figures), workersFor(*parallel))
		res, err := experiments.RunScenario(sc, experiments.CampaignOptions{
			Workers:    *parallel,
			JobTimeout: *timeout,
			Progress:   os.Stderr,
			Label:      label,
			Hub:        hub,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "declusterbench:", err)
			exit = 1
		}
		manifests = append(manifests, res.Manifest)
		if *tsDir != "" {
			if err := writeTimeSeriesCSVs(*tsDir, res); err != nil {
				fmt.Fprintln(os.Stderr, "declusterbench:", err)
				exit = 1
			}
		}
		return res
	}

	p := printer{csv: *csv, plot: *plot, detail: *detail, nodeStats: *nodeStats}
	archive := experiments.Archive{Label: "declusterbench", Options: opts}
	if len(sc.Figures) > 0 {
		res := runScenario(sc, label)
		var heat []heatFile
		switch label {
		case "open":
			heat = p.open(res)
		case "elastic":
			p.elastic(res)
		case "degraded":
			p.degraded(res)
		case "sharing":
			p.sharing(res)
		default:
			archive.Figures, heat = p.closed(res)
		}
		// The degraded campaign prints its own line per figure.
		if opts.Faults.Enabled() && label != "degraded" {
			fmt.Printf("fault outcomes: %s\n", res.Outcomes())
		}
		if *heatmapDir != "" {
			if err := writeHeatCSVs(*heatmapDir, heat); err != nil {
				fmt.Fprintln(os.Stderr, "declusterbench:", err)
				exit = 1
			}
		}
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return fail(err)
		}
		if err := experiments.WriteArchive(f, archive); err != nil {
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
	}
	if *compare != "" {
		f, err := os.Open(*compare)
		if err != nil {
			return fail(err)
		}
		baseline, err := experiments.ReadArchive(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
		diffs := experiments.CompareArchives(baseline, archive, *tolerance)
		if len(diffs) == 0 {
			fmt.Printf("no throughput drifts beyond %.0f%% versus %s\n", *tolerance*100, *compare)
		} else {
			fmt.Printf("throughput drifts beyond %.0f%% versus %s:\n", *tolerance*100, *compare)
			for _, d := range diffs {
				fmt.Println("  " + d)
			}
			exit = 1
		}
	}

	if *scaleout {
		fig, err := experiments.FigureByID("8a")
		if err != nil {
			return fail(err)
		}
		res := runScenario(experiments.ScaleOutScenario(fig, nil, opts), "scaleout")
		p.table(res.ScaleOut().Table())
	}

	if *manifestOut != "" && len(manifests) > 0 {
		merged := harness.Merge("declusterbench", manifests...)
		f, err := os.Create(*manifestOut)
		if err != nil {
			return fail(err)
		}
		if err := merged.Write(f); err != nil {
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d jobs, %d workers, %.2fx speedup vs serial, peak RSS %.1f MB)\n",
			*manifestOut, merged.Jobs, merged.Workers, merged.Speedup, merged.PeakRSSMB)
	}
	if hub != nil && *metricsLing > 0 {
		fmt.Fprintf(os.Stderr, "metrics endpoint lingering %v (%d runs registered)...\n",
			*metricsLing, len(hub.Runs()))
		time.Sleep(*metricsLing)
	}
	return exit
}

// printer renders a scenario's results on stdout, as aligned tables or CSV.
type printer struct {
	csv, plot, detail, nodeStats bool
}

func (p printer) table(tb *stats.Table) {
	if p.csv {
		fmt.Print(tb.CSV())
	} else {
		fmt.Println(tb.String())
	}
}

func printNotes(notes []string) {
	for _, n := range notes {
		fmt.Printf("  %s\n", n)
	}
}

// closed prints each figure's MPL sweep and returns the figures' archive
// entries and heat files.
func (p printer) closed(res experiments.ScenarioResult) ([]experiments.FigureArchive, []heatFile) {
	var archive []experiments.FigureArchive
	var heat []heatFile
	for _, fr := range res.Closed() {
		archive = append(archive, fr.Archive())
		p.table(fr.Table())
		printNotes(fr.Notes)
		if p.plot {
			fmt.Println()
			fmt.Println(fr.Chart().String())
		}
		if p.detail {
			p.table(fr.DetailTable())
		}
		if p.nodeStats {
			// The sweep's highest MPL, where execution skew is most visible.
			top := slices.Max(fr.Options.MPLs)
			for _, s := range fr.Figure.Strategies {
				if tb := fr.NodeTable(s, top); tb != nil {
					p.table(tb)
				}
			}
		}
		heat = append(heat, p.heat(fr.Figure, fr)...)
		fmt.Println()
	}
	return archive, heat
}

// open prints each figure's offered-load sweep, its serving summary and,
// when armed, the telemetry and heat blocks; it returns the heat files.
func (p printer) open(res experiments.ScenarioResult) []heatFile {
	var heat []heatFile
	for _, fr := range res.Open() {
		p.table(fr.Table())
		printNotes(fr.Notes)
		if p.detail {
			p.table(fr.DetailTable())
		}
		fmt.Println()
		p.table(fr.SummaryTable())
		fmt.Println()
		p.openTelemetry(fr)
		heat = append(heat, p.heat(fr.Figure, fr)...)
	}
	return heat
}

func (p printer) elastic(res experiments.ScenarioResult) {
	for _, fr := range res.Elastic() {
		p.table(fr.Table())
		printNotes(fr.Notes)
		for _, pt := range fr.Points {
			if pt.Summary != "" {
				fmt.Printf("fig%s/%s n=%d %s\n", fr.Figure.ID, pt.Strategy, pt.Size, pt.Summary)
			}
		}
		fmt.Println()
	}
}

func (p printer) degraded(res experiments.ScenarioResult) {
	for _, dr := range res.Degraded() {
		p.table(dr.Table())
		fmt.Printf("fault outcomes: %s\n\n", dr.Outcomes())
	}
}

func (p printer) sharing(res experiments.ScenarioResult) {
	for _, sr := range res.Sharing() {
		p.table(sr.Table())
		for _, line := range sr.Summary() {
			fmt.Println(line)
		}
		saved, best := sr.MaxSaved()
		fmt.Printf("sharing best: %.1f%% disk reads saved (%s fig%s MPL %d)\n\n",
			100*saved, best.Strategy, sr.Figure.ID, best.MPL)
	}
}

// openTelemetry prints the time-resolved blocks of one open figure when
// its points carry telemetry: goodput-over-time and disk-skew-over-time at
// the highest offered load (where the time axis is most interesting), plus
// one SLO burn line per strategy at that load.
func (p printer) openTelemetry(res experiments.OpenFigureResult) {
	if !res.HasTimeSeries() || len(res.Open.Lambdas) == 0 {
		return
	}
	lambda := slices.Max(res.Open.Lambdas)
	p.table(res.GoodputOverTime(lambda))
	p.table(res.SkewOverTime(lambda))
	for _, pt := range res.Points {
		if pt.Lambda != lambda || pt.Result.Serve.Burn == nil {
			continue
		}
		b := pt.Result.Serve.Burn
		line := fmt.Sprintf("slo burn %s λ=%g: %d/%d windows violated (max burn %.2f, budget %.2f)",
			pt.Strategy, lambda, b.Violated, b.Windows, b.MaxBurnRate, b.Budget)
		if b.FirstViolation > 0 {
			line += fmt.Sprintf(", first violation at %v", sim.Duration(b.FirstViolation))
			if b.Recovery > 0 {
				line += fmt.Sprintf(", recovered at %v", sim.Duration(b.Recovery))
			} else {
				line += ", never recovered"
			}
		}
		fmt.Println(line)
	}
	fmt.Println()
}

// heatReport is the per-strategy fragment heat view of a closed or open
// figure.
type heatReport interface {
	StrategyHeat(strategy string) *obs.HeatSnapshot
	HeatTable(strategy string) *stats.Table
}

// heat prints each strategy's merged fragment heatmap plus its
// hot-fragments line, and returns the snapshots as canonical-order CSV
// files for -heatmap-dir. Nothing is printed when heat was not armed.
func (p printer) heat(fig experiments.Figure, r heatReport) []heatFile {
	var files []heatFile
	for _, s := range fig.Strategies {
		snap := r.StrategyHeat(s)
		if snap == nil {
			continue
		}
		p.table(r.HeatTable(s))
		if line := experiments.HotLine(fig.ID, s, snap); line != "" {
			fmt.Println(line)
		}
		files = append(files, heatFile{"fig" + fig.ID + "_" + s + "_heat.csv", snap})
	}
	return files
}

// writeTimeSeriesCSVs writes one CSV file per run that carries telemetry,
// named after the job ID. It runs on the main goroutine over the result's
// canonical point order, so the files are identical at any worker count.
func writeTimeSeriesCSVs(dir string, res experiments.ScenarioResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	n := 0
	for _, f := range res.Figures {
		for _, pt := range f.Points {
			series := pt.Result.Series
			if series == nil {
				series = pt.Serve.Series
			}
			if len(series) == 0 {
				continue
			}
			out, err := os.Create(filepath.Join(dir, strings.ReplaceAll(pt.ID, "/", "_")+".csv"))
			if err != nil {
				return err
			}
			if err := obs.WriteSeriesCSV(out, series); err != nil {
				out.Close()
				return err
			}
			if err := out.Close(); err != nil {
				return err
			}
			n++
		}
	}
	fmt.Fprintf(os.Stderr, "wrote %d time-series CSV files to %s\n", n, dir)
	return nil
}

// heatFile is one (figure, strategy) merged heat snapshot destined for a
// CSV file in -heatmap-dir.
type heatFile struct {
	name string
	snap *obs.HeatSnapshot
}

// writeHeatCSVs writes one canonical-order fragment heat CSV per
// (figure, strategy). It runs on the main goroutine over figure order and
// the snapshots' rows are canonically sorted, so the files are
// byte-identical at any worker count.
func writeHeatCSVs(dir string, files []heatFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, hf := range files {
		f, err := os.Create(filepath.Join(dir, hf.name))
		if err != nil {
			return err
		}
		if err := obs.WriteHeatCSV(f, hf.snap); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "wrote %d fragment heat CSV files to %s\n", len(files), dir)
	return nil
}

// workersFor mirrors the harness default so the banner matches reality.
func workersFor(parallel int) int {
	if parallel > 0 {
		return parallel
	}
	return runtime.GOMAXPROCS(0)
}

func buildOptions(scale string, card, procs int, mplList string, measure, warmup int, seed int64, seedSet bool) (experiments.Options, error) {
	var opts experiments.Options
	switch scale {
	case "paper":
		opts = experiments.PaperScale()
	case "quick":
		opts = experiments.QuickScale()
	default:
		return opts, fmt.Errorf("unknown -scale %q (want paper or quick)", scale)
	}
	if card > 0 {
		opts.Cardinality = card
	}
	if procs > 0 {
		opts.Processors = procs
	}
	if measure > 0 {
		opts.MeasureQueries = measure
	}
	if warmup > 0 {
		opts.WarmupQueries = warmup
	}
	if seedSet {
		opts.Seed = seed
		opts.SeedSet = true
	}
	if mplList != "" {
		var mpls []int
		for _, s := range strings.Split(mplList, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v <= 0 {
				return opts, fmt.Errorf("bad MPL %q", s)
			}
			mpls = append(mpls, v)
		}
		opts.MPLs = mpls
	}
	return opts, nil
}

// buildOpenOptions assembles the open-system campaign options from the
// -arrival, -lambda, -tenants, -slo-ms and -governor flags. Zero values
// defer to the experiments-package defaults.
func buildOpenOptions(arrival, lambdaList string, tenants int, sloMS float64, governor int) (experiments.OpenOptions, error) {
	kind, err := serve.ParseArrivalKind(arrival)
	if err != nil {
		return experiments.OpenOptions{}, err
	}
	oopts := experiments.OpenOptions{
		Arrival:      kind,
		Tenants:      tenants,
		SLOms:        sloMS,
		MaxInService: governor,
	}
	if tenants < 0 {
		return oopts, fmt.Errorf("negative -tenants %d", tenants)
	}
	if sloMS < 0 {
		return oopts, fmt.Errorf("negative -slo-ms %g", sloMS)
	}
	if governor < 0 {
		return oopts, fmt.Errorf("negative -governor %d", governor)
	}
	if lambdaList != "" {
		for _, s := range strings.Split(lambdaList, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || v <= 0 {
				return oopts, fmt.Errorf("bad -lambda %q (want positive numbers)", s)
			}
			oopts.Lambdas = append(oopts.Lambdas, v)
		}
	}
	return oopts, nil
}

func selectFigures(list string) ([]experiments.Figure, error) {
	if list == "" {
		return experiments.Figures(), nil
	}
	if list == "none" {
		return nil, nil
	}
	var out []experiments.Figure
	for _, id := range strings.Split(list, ",") {
		fig, err := experiments.FigureByID(strings.TrimSpace(id))
		if err != nil {
			return nil, err
		}
		out = append(out, fig)
	}
	return out, nil
}

// buildFaultSpec assembles the run's fault spec from the -mtbf, -kill-disk
// and -kill-node flags. An all-defaults spec (Enabled() == false) leaves the
// run byte-identical to a fault-free build.
func buildFaultSpec(mtbf time.Duration, killDisk, killNode string) (*fault.Spec, error) {
	if mtbf < 0 {
		return nil, fmt.Errorf("negative -mtbf %v", mtbf)
	}
	spec := &fault.Spec{MTBF: sim.Duration(mtbf)}
	if err := parseKillList(killDisk, fault.DiskFail, spec); err != nil {
		return nil, fmt.Errorf("-kill-disk: %w", err)
	}
	if err := parseKillList(killNode, fault.NodeCrash, spec); err != nil {
		return nil, fmt.Errorf("-kill-node: %w", err)
	}
	return spec, nil
}

// parseKillList parses a comma-separated list of "n@t[+d]" items — node n
// fails at offset t, recovering d later when the +d suffix is present — and
// appends the corresponding events to spec. Durations use Go syntax
// (time.ParseDuration); simulation time is nanoseconds 1:1 with
// time.Duration.
func parseKillList(list string, kind fault.Kind, spec *fault.Spec) error {
	for _, item := range strings.Split(list, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		ev, err := parseKill(item, kind)
		if err != nil {
			return err
		}
		spec.Events = append(spec.Events, ev)
	}
	return nil
}

func parseKill(s string, kind fault.Kind) (fault.Event, error) {
	i := strings.IndexByte(s, '@')
	if i < 0 {
		return fault.Event{}, fmt.Errorf("bad item %q (want n@t or n@t+d)", s)
	}
	node, err := strconv.Atoi(s[:i])
	if err != nil || node < 0 {
		return fault.Event{}, fmt.Errorf("bad node in %q", s)
	}
	at, rest, recovers := strings.Cut(s[i+1:], "+")
	t, err := time.ParseDuration(at)
	if err != nil || t < 0 {
		return fault.Event{}, fmt.Errorf("bad offset in %q", s)
	}
	ev := fault.Event{At: sim.Duration(t), Kind: kind, Node: node}
	if recovers {
		d, err := time.ParseDuration(rest)
		if err != nil || d <= 0 {
			return fault.Event{}, fmt.Errorf("bad recovery duration in %q", s)
		}
		ev.Dur = sim.Duration(d)
	}
	return ev, nil
}

// parseSizes parses the -sizes list of initial cluster sizes.
func parseSizes(list string) ([]int, error) {
	if list == "" {
		return nil, nil
	}
	var sizes []int
	for _, s := range strings.Split(list, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad -sizes entry %q (want positive integers)", s)
		}
		sizes = append(sizes, v)
	}
	return sizes, nil
}

// parseKs parses the -faults list of failed-disk counts.
func parseKs(list string) ([]int, error) {
	var ks []int
	for _, s := range strings.Split(list, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad -faults count %q (want non-negative integers)", s)
		}
		ks = append(ks, v)
	}
	return ks, nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "declusterbench:", err)
	return 1
}
