package repro

// The benchmark harness: one benchmark per figure of the paper's evaluation
// section (Section 7) plus the ablation benches DESIGN.md calls out. Each
// figure benchmark runs the full MPL sweep for every strategy and reports
// the measured throughputs as custom metrics (q/s per strategy at the
// highest MPL), so
//
//	go test -bench=Fig -benchmem
//
// regenerates the series of every figure. Set REPRO_SCALE=paper in the
// environment to run at the paper's full scale (100k tuples, MPL 1..64);
// the default is the quick scale used by CI.
//
// cmd/declusterbench prints the same series as readable tables.

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/gamma"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

func benchOptions() experiments.Options {
	if os.Getenv("REPRO_SCALE") == "paper" {
		return experiments.PaperScale()
	}
	return experiments.QuickScale()
}

// benchWorkers sizes the harness worker pool for benchmark runs: the
// REPRO_WORKERS environment variable, defaulting to GOMAXPROCS. Results do
// not depend on the worker count — only wall clock does.
func benchWorkers() int {
	if s := os.Getenv("REPRO_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// benchFigure runs one figure per b.N iteration — its (strategy, MPL) jobs
// spread over the harness worker pool — and reports the throughput of each
// strategy at the top multiprogramming level.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	fig, err := experiments.FigureByID(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOptions()
	copts := experiments.CampaignOptions{Workers: benchWorkers()}
	var last experiments.FigureResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		campaign, err := experiments.RunCampaign([]experiments.Figure{fig}, opts, copts)
		if err != nil {
			b.Fatal(err)
		}
		last = campaign.Figures[0]
	}
	b.StopTimer()
	top := opts.MPLs[len(opts.MPLs)-1]
	for _, s := range fig.Strategies {
		if qps, ok := last.Throughput(s, top); ok {
			b.ReportMetric(qps, s+"_q/s")
		}
	}
	if b.N > 0 {
		b.Logf("figure %s @ MPL %d:\n%s", id, top, last.Table().String())
	}
}

// Figure benchmarks — one per table/figure of the evaluation section.

func BenchmarkFig8LowLowLowCorr(b *testing.B)            { benchFigure(b, "8a") }
func BenchmarkFig8LowLowHighCorr(b *testing.B)           { benchFigure(b, "8b") }
func BenchmarkFig9HigherSelectivity(b *testing.B)        { benchFigure(b, "9") }
func BenchmarkFig10LowModerateLowCorr(b *testing.B)      { benchFigure(b, "10a") }
func BenchmarkFig10LowModerateHighCorr(b *testing.B)     { benchFigure(b, "10b") }
func BenchmarkFig11ModerateLowLowCorr(b *testing.B)      { benchFigure(b, "11a") }
func BenchmarkFig11ModerateLowHighCorr(b *testing.B)     { benchFigure(b, "11b") }
func BenchmarkFig12ModerateModerateLowCorr(b *testing.B) { benchFigure(b, "12a") }
func BenchmarkFig12ModerateModerateHighCorr(b *testing.B) {
	benchFigure(b, "12b")
}

// Ablation benches (design choices called out in DESIGN.md).

// BenchmarkAblationBufferPool sweeps the per-node buffer pool size on the
// low-low mix: the crossover from disk-bound to memory-resident shows why
// the default pins index pages but not data.
func BenchmarkAblationBufferPool(b *testing.B) {
	opts := benchOptions()
	opts.MPLs = []int{32}
	fig, _ := experiments.FigureByID("8a")
	fig.Strategies = []string{experiments.StrategyMAGIC}
	for _, pages := range []int{0, 8, 24, 256} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			cfg := experiments.ConfigFor(opts)
			cfg.BufferPages = pages
			o := opts
			o.Config = &cfg
			var qps float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunCampaign([]experiments.Figure{fig}, o, experiments.CampaignOptions{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				qps, _ = res.Figures[0].Throughput(experiments.StrategyMAGIC, 32)
			}
			b.ReportMetric(qps, "q/s")
		})
	}
}

// BenchmarkAblationBERDFetchMode compares BERD's second step executed as a
// predicate re-execution (the paper's protocol) against per-TID fetches.
func BenchmarkAblationBERDFetchMode(b *testing.B) {
	opts := benchOptions()
	opts.MPLs = []int{32}
	fig, _ := experiments.FigureByID("10a")
	fig.Strategies = []string{experiments.StrategyBERD}
	for _, byTID := range []bool{false, true} {
		name := "predicate"
		if byTID {
			name = "tid-fetch"
		}
		b.Run(name, func(b *testing.B) {
			cfg := experiments.ConfigFor(opts)
			cfg.BERDFetchByTID = byTID
			o := opts
			o.Config = &cfg
			var qps float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunCampaign([]experiments.Figure{fig}, o, experiments.CampaignOptions{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				qps, _ = res.Figures[0].Throughput(experiments.StrategyBERD, 32)
			}
			b.ReportMetric(qps, "q/s")
		})
	}
}

// BenchmarkAblationAssignment compares MAGIC's Mi-aware tiled assignment
// (with and without rebalancing) against naive round-robin cell assignment
// on the high-correlation low-low mix, where assignment quality matters
// most.
func BenchmarkAblationAssignment(b *testing.B) {
	opts := benchOptions()
	opts.MPLs = []int{32}
	cfg := experiments.ConfigFor(opts)
	rel := storage.GenerateWisconsin(storage.GenSpec{
		Cardinality:       opts.Cardinality,
		CorrelationWindow: opts.Cardinality / 1000,
		Seed:              opts.Seed,
	})
	mix := workload.LowLow(opts.Cardinality)
	specs := workload.EstimateSpecs(mix, opts.Cardinality, cfg.HW, cfg.Costs)
	pp := workload.PlanParamsFor(opts.Cardinality, opts.Processors, cfg.Costs)

	variants := []struct {
		name string
		opts *core.MagicOptions
	}{
		{"tiled+rebalance", nil},
		{"tiled-only", &core.MagicOptions{DisableRebalance: true}},
		{"round-robin", &core.MagicOptions{RoundRobinAssign: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			pl, err := core.BuildMAGIC(rel, []int{storage.Unique1, storage.Unique2}, specs, pp, v.opts)
			if err != nil {
				b.Fatal(err)
			}
			machine, err := gamma.Build(rel, pl, cfg)
			if err != nil {
				b.Fatal(err)
			}
			var qps float64
			for i := 0; i < b.N; i++ {
				res, err := machine.Run(mix, gamma.RunSpec{
					MPL:            32,
					WarmupQueries:  opts.WarmupQueries,
					MeasureQueries: opts.MeasureQueries,
					Seed:           opts.Seed,
				})
				if err != nil {
					b.Fatal(err)
				}
				qps = res.ThroughputQPS
			}
			machine.Close()
			b.ReportMetric(qps, "q/s")
		})
	}
}

// BenchmarkAblationHash adds hash declustering (the introduction's other
// single-attribute baseline) to the low-low comparison: exact-match queries
// on A localize to one node, but every range query fans out to all of them.
func BenchmarkAblationHash(b *testing.B) {
	opts := benchOptions()
	opts.MPLs = []int{32}
	fig, _ := experiments.FigureByID("8a")
	fig.Strategies = []string{experiments.StrategyHash, experiments.StrategyRange}
	var last experiments.FigureResult
	for i := 0; i < b.N; i++ {
		campaign, err := experiments.RunCampaign([]experiments.Figure{fig}, opts, experiments.CampaignOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		last = campaign.Figures[0]
	}
	for _, s := range fig.Strategies {
		if qps, ok := last.Throughput(s, 32); ok {
			b.ReportMetric(qps, s+"_q/s")
		}
	}
}

// BenchmarkPlanSensitivity sweeps the Cost of Participation and reports the
// planner's M — the knob Section 3.2's formula balances against parallelism.
// This is pure planning arithmetic: no simulation.
func BenchmarkPlanSensitivity(b *testing.B) {
	opts := benchOptions()
	cfg := experiments.ConfigFor(opts)
	mix := workload.LowModerate(opts.Cardinality)
	specs := workload.EstimateSpecs(mix, opts.Cardinality, cfg.HW, cfg.Costs)
	for _, cp := range []float64{0.5, 1.7, 5.0} {
		b.Run(fmt.Sprintf("CP=%.1fms", cp), func(b *testing.B) {
			pp := workload.PlanParamsFor(opts.Cardinality, opts.Processors, cfg.Costs)
			pp.CPms = cp
			var m float64
			for i := 0; i < b.N; i++ {
				plan, err := core.ComputePlan(specs, pp)
				if err != nil {
					b.Fatal(err)
				}
				m = plan.M
			}
			b.ReportMetric(m, "M")
		})
	}
}

// BenchmarkCampaign runs every figure of the evaluation section as one
// concurrent campaign and reports the harness's measured speedup versus
// back-to-back job execution — the wall-clock win of regenerating the whole
// evaluation on a multi-core host.
func BenchmarkCampaign(b *testing.B) {
	opts := benchOptions()
	copts := experiments.CampaignOptions{Workers: benchWorkers()}
	var speedup float64
	for i := 0; i < b.N; i++ {
		campaign, err := experiments.RunCampaign(experiments.Figures(), opts, copts)
		if err != nil {
			b.Fatal(err)
		}
		speedup = campaign.Manifest.Speedup
	}
	b.ReportMetric(float64(benchWorkers()), "workers")
	b.ReportMetric(speedup, "speedup")
}

// BenchmarkScaleOut sweeps the machine size at constant per-processor load
// (MPL = 2P) and reports each strategy's throughput at the largest size.
func BenchmarkScaleOut(b *testing.B) {
	fig, err := experiments.FigureByID("8a")
	if err != nil {
		b.Fatal(err)
	}
	sc := experiments.ScaleOutScenario(fig, nil, benchOptions())
	copts := experiments.CampaignOptions{Workers: benchWorkers()}
	var last experiments.ScaleResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunScenario(sc, copts)
		if err != nil {
			b.Fatal(err)
		}
		last = res.ScaleOut()
	}
	top := last.Processors[len(last.Processors)-1]
	for _, s := range last.Strategies {
		if qps, ok := last.Throughput(s, top); ok {
			b.ReportMetric(qps, s+"_q/s")
		}
	}
	b.Logf("scale-out:\n%s", last.Table().String())
}

// BenchmarkAblationAccessSkew aims 80% of the queries at the first 10% of
// the attribute domain (the hot-spot pattern [GD90] warns about) and
// reports each strategy's throughput at MPL 32 beside the uniform numbers.
func BenchmarkAblationAccessSkew(b *testing.B) {
	opts := benchOptions()
	opts.MPLs = []int{32}
	cfg := experiments.ConfigFor(opts)
	rel := storage.GenerateWisconsin(storage.GenSpec{
		Cardinality: opts.Cardinality, Seed: opts.Seed,
	})
	for _, hot := range []bool{false, true} {
		name := "uniform"
		mix := workload.LowLow(opts.Cardinality)
		if hot {
			name = "hot80-10"
			mix = mix.WithHotSpot(0.8, 0.1)
		}
		b.Run(name, func(b *testing.B) {
			for _, strat := range []string{experiments.StrategyMAGIC, experiments.StrategyRange} {
				pl, err := experiments.BuildPlacement(strat, rel, mix, opts)
				if err != nil {
					b.Fatal(err)
				}
				machine, err := gamma.Build(rel, pl, cfg)
				if err != nil {
					b.Fatal(err)
				}
				var qps float64
				for i := 0; i < b.N; i++ {
					res, err := machine.Run(mix, gamma.RunSpec{
						MPL:            32,
						WarmupQueries:  opts.WarmupQueries,
						MeasureQueries: opts.MeasureQueries,
						Seed:           opts.Seed,
					})
					if err != nil {
						b.Fatal(err)
					}
					qps = res.ThroughputQPS
				}
				machine.Close()
				b.ReportMetric(qps, strat+"_q/s")
			}
		})
	}
}

// BenchmarkOpenSystem sweeps the offered load on the low-low mix and
// reports mean response time per strategy — the open-system extension of
// the closed MPL experiments.
func BenchmarkOpenSystem(b *testing.B) {
	opts := benchOptions()
	cfg := experiments.ConfigFor(opts)
	rel := storage.GenerateWisconsin(storage.GenSpec{
		Cardinality: opts.Cardinality, Seed: opts.Seed,
	})
	mix := workload.LowLow(opts.Cardinality)
	for _, rate := range []float64{50, 200} {
		b.Run(fmt.Sprintf("rate=%.0fqps", rate), func(b *testing.B) {
			for _, strat := range []string{experiments.StrategyMAGIC, experiments.StrategyRange} {
				pl, err := experiments.BuildPlacement(strat, rel, mix, opts)
				if err != nil {
					b.Fatal(err)
				}
				machine, err := gamma.Build(rel, pl, cfg)
				if err != nil {
					b.Fatal(err)
				}
				var resp float64
				for i := 0; i < b.N; i++ {
					res, err := machine.RunServe(mix, gamma.ServeSpec{
						Arrival:        serve.ArrivalSpec{Kind: serve.Poisson, RateQPS: rate},
						WarmupQueries:  opts.WarmupQueries / 2,
						MeasureQueries: opts.MeasureQueries,
						Seed:           opts.Seed,
					})
					if err != nil {
						b.Fatal(err)
					}
					resp = res.Serve.SLO.Latency.Mean
				}
				machine.Close()
				b.ReportMetric(resp, strat+"_resp_ms")
			}
		})
	}
}

// BenchmarkDeclusteringLoad measures the cost of the partitioning process
// itself (Section 3.1): range scans the source once; BERD and MAGIC need a
// second pass and write more pages.
func BenchmarkDeclusteringLoad(b *testing.B) {
	opts := benchOptions()
	cfg := experiments.ConfigFor(opts)
	rel := storage.GenerateWisconsin(storage.GenSpec{
		Cardinality: opts.Cardinality, Seed: opts.Seed,
	})
	mix := workload.LowLow(opts.Cardinality)
	for _, strat := range []string{experiments.StrategyRange, experiments.StrategyBERD, experiments.StrategyMAGIC} {
		b.Run(strat, func(b *testing.B) {
			pl, err := experiments.BuildPlacement(strat, rel, mix, opts)
			if err != nil {
				b.Fatal(err)
			}
			machine, err := gamma.Build(rel, pl, cfg)
			if err != nil {
				b.Fatal(err)
			}
			var loadS float64
			for i := 0; i < b.N; i++ {
				res, err := machine.SimulateLoad()
				if err != nil {
					b.Fatal(err)
				}
				loadS = res.Elapsed.Seconds()
			}
			machine.Close()
			b.ReportMetric(loadS, "load_s")
		})
	}
}

// BenchmarkEquation1Validation measures the response-time-versus-
// declustering-width curve for the moderate non-clustered query and
// reports the measured and modeled optima — the empirical check of the
// paper's Equation 1.
func BenchmarkEquation1Validation(b *testing.B) {
	opts := benchOptions()
	opts.Cardinality = 100000 // full-size fragments keep the disks honest
	cls := workload.ModerateLow(opts.Cardinality).Classes[0]
	var rc experiments.ResponseCurve
	var err error
	for i := 0; i < b.N; i++ {
		rc, err = experiments.RunResponseCurve(cls, []int{1, 2, 4, 8, 16, 32, 64}, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rc.MeasuredM), "measured_M")
	b.ReportMetric(float64(rc.ModeledM), "modeled_M")
	b.Logf("equation 1 validation:\n%s", rc.Table().String())
}

// BenchmarkJoinColocation measures the parallel hash join with both inputs
// hash-declustered on the join key (co-located: split tables degenerate to
// the identity) versus range-declustered inputs that must fully repartition.
func BenchmarkJoinColocation(b *testing.B) {
	opts := benchOptions()
	cfg := experiments.ConfigFor(opts)
	stock := storage.GenerateWisconsin(storage.GenSpec{
		Name: "stock", Cardinality: opts.Cardinality, Seed: 21,
	})
	trades := storage.GenerateWisconsin(storage.GenSpec{
		Name: "trades", Cardinality: opts.Cardinality / 4, Seed: 22,
	})
	join := plan.NewJoin(storage.Unique1, plan.NewScan("trades"), plan.NewScan("stock"))
	variants := []struct {
		name              string
		stockPl, tradesPl core.Placement
	}{
		{"co-located",
			core.NewHash(storage.Unique1, opts.Processors),
			core.NewHash(storage.Unique1, opts.Processors)},
		{"repartitioned",
			core.NewRangeForRelation(stock, storage.Unique2, opts.Processors),
			core.NewRangeForRelation(trades, storage.Unique2, opts.Processors)},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			if got := exec.Colocated(v.tradesPl, v.stockPl, storage.Unique1); got != (v.name == "co-located") {
				b.Fatalf("Colocated = %v", got)
			}
			machine, err := gamma.Build(stock, v.stockPl, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := machine.AddRelation(trades, v.tradesPl); err != nil {
				b.Fatal(err)
			}
			var ms float64
			for i := 0; i < b.N; i++ {
				res, err := machine.Query("joiner", join, sim.Time(30*60*sim.Second))
				if err != nil {
					b.Fatal(err)
				}
				if res.Tuples != trades.Cardinality() {
					b.Fatalf("matches = %d", res.Tuples)
				}
				ms = res.ResponseMS()
				machine.Reset() // fresh engine for the next iteration
			}
			machine.Close()
			b.ReportMetric(ms, "join_ms")
		})
	}
}
