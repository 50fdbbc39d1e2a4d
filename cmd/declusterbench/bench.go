package main

// Kernel microbenchmark mode (-bench-out): runs the simulation kernel's
// fast-path benchmarks — the same shapes internal/sim's go-test benchmarks
// measure — through testing.Benchmark and archives the results as JSON next
// to figure archives. The suite rides the harness machinery: each benchmark
// is one harness job, so the report carries the usual environment snapshot
// and per-job manifest, making committed baselines comparable across
// machines and Go releases.

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rebalance"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/storage"
)

// BenchResult is one benchmark's archived measurement.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// ArrivalsPerSec is published for the serving-layer benchmark
	// (OpenArrivals): admitted arrivals processed per wall-clock second,
	// i.e. 1e9 / NsPerOp. Zero for the kernel fast-path entries.
	ArrivalsPerSec float64 `json:"arrivals_per_sec,omitempty"`
}

// BenchReport is the JSON document -bench-out writes.
type BenchReport struct {
	Label      string           `json:"label"`
	Env        harness.Env      `json:"env"`
	Benchmarks []BenchResult    `json:"benchmarks"`
	Manifest   harness.Manifest `json:"manifest"`
}

// kernelBenchmarks is the committed-baseline suite: one entry per kernel
// fast path. Kept in sync with internal/sim's benchmarks by name.
func kernelBenchmarks() []struct {
	name string
	fn   func(b *testing.B)
} {
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"EventThroughput", benchEventThroughput},
		{"FacilityContention", benchFacilityContention},
		{"MailboxPingPong", benchMailboxPingPong},
		{"ScheduleCallback", benchScheduleCallback},
		{"ScheduleHandler", benchScheduleHandler},
		{"ReadyRingWake", benchReadyRingWake},
		{"SpanDisabled", benchSpanDisabled},
		{"SamplerSample", benchSamplerSample},
		{"HeatSample", benchHeatSample},
		{"SharedScanBatch", benchSharedScanBatch},
		{"MigrationStep", benchMigrationStep},
		{"OpenArrivals", benchOpenArrivals},
		{"OpenArrivalsSampled", benchOpenArrivalsSampled},
	}
}

func benchEventThroughput(b *testing.B) {
	e := sim.New()
	e.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Hold(sim.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func benchFacilityContention(b *testing.B) {
	e := sim.New()
	f := sim.NewFacility(e, "cpu")
	per := b.N/16 + 1
	for w := 0; w < 16; w++ {
		e.Spawn("w", func(p *sim.Proc) {
			for i := 0; i < per; i++ {
				f.Use(p, sim.Microsecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func benchMailboxPingPong(b *testing.B) {
	e := sim.New()
	ping := sim.NewMailbox[int](e, "ping")
	pong := sim.NewMailbox[int](e, "pong")
	e.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			ping.Put(i)
			pong.Get(p)
		}
	})
	e.Spawn("b", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			ping.Get(p)
			pong.Put(i)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func benchScheduleCallback(b *testing.B) {
	e := sim.New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(sim.Microsecond, fn)
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

type benchTick struct{ n int }

func (h *benchTick) HandleEvent() { h.n++ }

func benchScheduleHandler(b *testing.B) {
	e := sim.New()
	h := &benchTick{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleHandler(sim.Microsecond, h)
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchReadyRingWake(b *testing.B) {
	e := sim.New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(0, fn)
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSpanDisabled(b *testing.B) {
	e := sim.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := e.StartSpan()
		s.End(0, "cat", "name", 0, "")
	}
}

// benchSamplerSample measures one telemetry sampling tick over a machine-
// scale probe set (32 nodes x 2 rate probes plus gauges — the shape an open
// run with telemetry pays every window). The hot path must stay
// allocation-free: rings are preallocated and probes are plain closures.
func benchSamplerSample(b *testing.B) {
	s := obs.NewSampler(int64(250*sim.Millisecond), obs.DefaultCapacity)
	var c float64
	for i := 0; i < 64; i++ {
		s.Register(fmt.Sprintf("rate%d", i), obs.SeriesRate, func() float64 { c++; return c })
	}
	for i := 0; i < 64; i++ {
		s.Register(fmt.Sprintf("gauge%d", i), obs.SeriesGauge, func() float64 { return c })
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(int64(i+1) * int64(250*sim.Millisecond))
	}
}

// benchHeatSample measures one fragment-heat accounting step: the buffer
// hit/miss counters, queue-wait attribution and the per-read Account call —
// what every page access pays when heat is armed. The hot path must stay
// allocation-free (0 allocs/op); the histogram's wait bucket is pre-warmed
// so bucket growth doesn't count against the steady state.
func benchHeatSample(b *testing.B) {
	hm := obs.NewHeatMap()
	h := hm.Frag("bench", 0, obs.FragPrimary)
	h.DiskWait(int64(sim.Millisecond))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.BufferHit()
		h.BufferMiss()
		h.DiskWait(int64(sim.Millisecond))
		h.Account(2, 1, 512, i&1 == 1)
	}
}

// benchSharedScanBatch measures one full shared-scan cycle on a two-node
// exec machine: 8 concurrent identical selections enqueued on the manager,
// window-flushed, executed as one deduplicated disk pass, and demultiplexed
// back to their coordinators. Mirrors internal/exec's
// BenchmarkSharedScanBatch by name and shape.
func benchSharedScanBatch(b *testing.B) {
	eng := sim.New()
	params := hw.DefaultParams()
	params.NumProcessors = 2
	costs := exec.DefaultCosts()
	streams := rng.NewFactory(5)
	cpus := make([]*hw.CPU, 3)
	for i := 0; i < 2; i++ {
		cpus[i] = hw.NewCPU(eng, "cpu", params)
	}
	net := hw.NewNetwork(eng, params, cpus)
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	placement := core.NewRangeForRelation(rel, storage.Unique1, 2)
	layout := storage.Layout{TuplesPerPage: 8, IndexFanout: 8, IndexLeafCap: 8}
	for i := 0; i < 2; i++ {
		disk := hw.NewDisk(eng, "disk", params, cpus[i], streams.Stream("lat"))
		pool := buffer.NewPool(eng, "buf", 16, disk)
		n := exec.NewNode(eng, i, params, costs, net, cpus[i], disk, pool)
		var tuples []storage.Tuple
		for _, tup := range rel.Tuples {
			if placement.HomeOf(tup) == i {
				tuples = append(tuples, tup)
			}
		}
		alloc := storage.NewAllocator(10000)
		frag := storage.BuildFragment(i, tuples, storage.Unique2, layout, alloc)
		frag.AddIndex(storage.Unique2, alloc)
		frag.AddIndex(storage.Unique1, alloc)
		n.AddFragment(rel.Name, frag)
		n.Start()
	}
	host := exec.NewHost(eng, 2, params, net, costs)
	host.AddRelation(rel.Name, placement)
	host.Start()
	host.EnableSharing(2 * sim.Millisecond)
	query := plan.Select(rel.Name, core.Predicate{Attr: storage.Unique2, Lo: 40, Hi: 79}, plan.AccessClustered)
	eng.Spawn("bench", func(p *sim.Proc) {
		done := sim.NewMailbox[int](eng, "bench.done")
		for i := 0; i < b.N; i++ {
			for k := 0; k < 8; k++ {
				eng.Spawn("q", func(qp *sim.Proc) {
					host.Submit(qp, query)
					done.Put(1)
				})
			}
			for k := 0; k < 8; k++ {
				done.Get(p)
			}
		}
		eng.Stop()
	})
	b.ReportAllocs()
	b.ResetTimer()
	horizon := sim.Duration(b.N)*sim.Second + 60*sim.Second
	if err := eng.RunUntil(sim.Time(horizon)); err != nil {
		b.Fatal(err)
	}
}

// benchNopIO is free page I/O, so the migration benchmark isolates the
// copier itself (throttle hold, dispatch, counters) from disk latency.
type benchNopIO struct{}

func (benchNopIO) ReadPage(p *sim.Proc, node, page int) error  { return nil }
func (benchNopIO) WritePage(p *sim.Proc, node, page int) error { return nil }

// benchMigrationStep measures the rebalance copier's per-page cost with an
// instantaneous rate, so the sim clock, not the throttle budget, bounds
// throughput. Mirrors internal/rebalance's BenchmarkMigrationStep by name
// and shape.
func benchMigrationStep(b *testing.B) {
	eng := sim.New()
	cp := &rebalance.Copier{IO: benchNopIO{}, RatePagesPerSec: 1 << 30, PageBytes: 8192}
	moves := make([]rebalance.TupleMove, 64)
	for i := range moves {
		moves[i] = rebalance.TupleMove{Src: 0, Dst: 1, SrcPage: i, DstPage: i}
	}
	plan := rebalance.BuildPlan(moves)
	pages := plan.Pages()
	eng.Spawn("bench", func(p *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i += pages {
			if err := cp.Run(p, plan); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportAllocs()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchServeBackend is a minimal serve.Executor: a fixed 1ms simulated
// service with no machine behind it, so the benchmark isolates the serving
// layer itself (arrival generation, admission, WRR dispatch, SLO
// accounting) from operator execution.
type benchServeBackend struct{}

func (benchServeBackend) Submit(p *sim.Proc, n *plan.Node) exec.QueryResult {
	start := p.Now()
	p.Hold(sim.Millisecond)
	return exec.QueryResult{Pred: n.Pred, Submitted: start, Completed: p.Now()}
}

// benchOpenArrivals measures the serving layer end to end: one op is one
// admitted arrival carried through to completion. Mirrors the serve
// package's BenchmarkOpenArrivals by name and shape.
func benchOpenArrivals(b *testing.B) {
	cfg := serve.Config{
		Arrival:        serve.ArrivalSpec{Kind: serve.Poisson, RateQPS: 2000},
		Tenants:        serve.DefaultTenants(4),
		MaxInService:   8,
		MaxQueue:       64,
		SLOms:          100,
		MeasureQueries: b.N,
		MaxSimTime:     sim.Duration(b.N+1000) * sim.Millisecond,
		Sample: func(src *rng.Source) (*plan.Node, string) {
			lo := int64(src.Intn(1000))
			return plan.Select("bench", core.Predicate{Attr: 1, Lo: lo, Hi: lo}, plan.AccessClustered), "bench"
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := serve.Run(sim.New(), rng.NewFactory(1), cfg, benchServeBackend{})
	if err != nil {
		b.Fatal(err)
	}
	if res.SLO.Completed < int64(b.N) {
		b.Fatalf("completed %d of %d", res.SLO.Completed, b.N)
	}
}

// benchOpenArrivalsSampled is benchOpenArrivals with telemetry armed: the
// serving layer registers its probes on a sampler and drives a sampling
// window every simulated 250ms, plus the SLO burn evaluator. The acceptance
// bar is <5% regression versus the unsampled run.
func benchOpenArrivalsSampled(b *testing.B) {
	cfg := serve.Config{
		Arrival:        serve.ArrivalSpec{Kind: serve.Poisson, RateQPS: 2000},
		Tenants:        serve.DefaultTenants(4),
		MaxInService:   8,
		MaxQueue:       64,
		SLOms:          100,
		MeasureQueries: b.N,
		MaxSimTime:     sim.Duration(b.N+1000) * sim.Millisecond,
		Telemetry:      obs.NewSampler(int64(250*sim.Millisecond), obs.DefaultCapacity),
		Sample: func(src *rng.Source) (*plan.Node, string) {
			lo := int64(src.Intn(1000))
			return plan.Select("bench", core.Predicate{Attr: 1, Lo: lo, Hi: lo}, plan.AccessClustered), "bench"
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := serve.Run(sim.New(), rng.NewFactory(1), cfg, benchServeBackend{})
	if err != nil {
		b.Fatal(err)
	}
	if res.SLO.Completed < int64(b.N) {
		b.Fatalf("completed %d of %d", res.SLO.Completed, b.N)
	}
}

// runBenchSuite executes the kernel suite serially (Workers: 1 — benchmarks
// must not contend with each other) and writes the JSON report to path.
func runBenchSuite(path string) error {
	suite := kernelBenchmarks()
	jobs := make([]harness.Job, len(suite))
	results := make([]BenchResult, len(suite))
	for i, bm := range suite {
		i, bm := i, bm
		jobs[i] = harness.Job{
			ID: "simbench/" + bm.name,
			Run: func() (any, error) {
				r := testing.Benchmark(bm.fn)
				if r.N == 0 {
					return nil, fmt.Errorf("benchmark %s did not run", bm.name)
				}
				results[i] = BenchResult{
					Name:        bm.name,
					Iterations:  r.N,
					NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
					AllocsPerOp: r.AllocsPerOp(),
					BytesPerOp:  r.AllocedBytesPerOp(),
				}
				if bm.name == "OpenArrivals" && results[i].NsPerOp > 0 {
					results[i].ArrivalsPerSec = 1e9 / results[i].NsPerOp
				}
				return nil, nil
			},
		}
	}
	_, manifest, err := harness.Execute(jobs, harness.Options{
		Workers:  1,
		Progress: os.Stderr,
		Label:    "simbench",
	})
	if err != nil {
		return err
	}
	if err := manifest.Err(); err != nil {
		return err
	}
	report := BenchReport{
		Label:      "simbench",
		Env:        harness.CaptureEnv(),
		Benchmarks: results,
		Manifest:   manifest,
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d benchmarks)\n", path, len(results))
	for _, r := range results {
		fmt.Printf("%-24s %12d iters %12.1f ns/op %6d B/op %5d allocs/op\n",
			r.Name, r.Iterations, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		if r.ArrivalsPerSec > 0 {
			fmt.Printf("%-24s %.0f arrivals/sec\n", "", r.ArrivalsPerSec)
		}
	}
	return nil
}
