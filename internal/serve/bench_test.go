package serve

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
)

// benchWindow measures b.N completions from the first instant.
func benchWindow(b *testing.B) exec.WindowSpec {
	return exec.WindowSpec{MeasureQueries: b.N, MaxSimTime: 3600 * sim.Second}
}

// BenchmarkOpenArrivals measures the serving layer's end-to-end admission
// throughput — arrival generation, admission, WRR dispatch, a minimal
// 1ms-service execution, and SLO accounting — in admitted arrivals per
// second of wall time.
func BenchmarkOpenArrivals(b *testing.B) {
	cfg := Config{
		Arrival:      ArrivalSpec{Kind: Poisson, RateQPS: 2000},
		Tenants:      DefaultTenants(4),
		MaxInService: 8,
		MaxQueue:     64,
		SLOms:        100,
		Sample:       pointQueries("bench"),
	}
	win := benchWindow(b)
	backend := &fakeBackend{service: sim.Millisecond}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := Run(sim.New(), rng.NewFactory(1), cfg, win, backend)
	if err != nil {
		b.Fatal(err)
	}
	if res.SLO.Completed < int64(b.N) {
		b.Fatalf("completed %d of %d", res.SLO.Completed, b.N)
	}
}

// BenchmarkOpenArrivalsSampled is the same workload with telemetry armed:
// the front end registers its probes, drives a sampling window every 250ms
// of simulated time, and evaluates the SLO burn rate per window. Guards the
// sampled-path overhead (acceptance: <5% over the unsampled benchmark).
func BenchmarkOpenArrivalsSampled(b *testing.B) {
	cfg := Config{
		Arrival:      ArrivalSpec{Kind: Poisson, RateQPS: 2000},
		Tenants:      DefaultTenants(4),
		MaxInService: 8,
		MaxQueue:     64,
		SLOms:        100,
		Sample:       pointQueries("bench"),
	}
	win := benchWindow(b)
	win.Telemetry = obs.NewSampler(int64(250*sim.Millisecond), obs.DefaultCapacity)
	backend := &fakeBackend{service: sim.Millisecond}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := Run(sim.New(), rng.NewFactory(1), cfg, win, backend)
	if err != nil {
		b.Fatal(err)
	}
	if res.SLO.Completed < int64(b.N) {
		b.Fatalf("completed %d of %d", res.SLO.Completed, b.N)
	}
	// A short probe run (b.N=1) can finish inside the first window, so only
	// the evaluator's presence is asserted here.
	if res.Burn == nil {
		b.Fatal("burn stats missing with telemetry armed")
	}
}
