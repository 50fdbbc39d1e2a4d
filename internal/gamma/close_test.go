package gamma

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/rebalance"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/workload"
)

// settleGoroutines waits briefly for the goroutine count to fall back to
// base: a process goroutine that Close has retired may still be returning.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after Machine.Close, want <= %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// Every way a machine's run ends must leave no process goroutine behind
// once the machine is closed: the build engine, each replaced run engine
// and the last one.
func TestMachineCloseLeavesNoGoroutines(t *testing.T) {
	rel := smallRelation(t, 0)
	mix := workload.LowLow(rel.Cardinality())
	crash := DefaultConfig()
	crash.ChainedReplicas = true
	crash.Faults = &fault.Spec{Events: []fault.Event{
		{At: 20 * sim.Millisecond, Kind: fault.NodeCrash, Node: 1},
	}}
	cases := []struct {
		name string
		run  func(t *testing.T) *Machine
	}{
		{"Run", func(t *testing.T) *Machine {
			m := buildRange(t, rel, DefaultConfig())
			if _, err := m.Run(mix, RunSpec{MPL: 4, WarmupQueries: 5, MeasureQueries: 40}); err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{"RunServe", func(t *testing.T) *Machine {
			m := buildBERD(t, rel, DefaultConfig())
			if _, err := m.RunServe(mix, ServeSpec{
				Arrival:        serve.ArrivalSpec{Kind: serve.Poisson, RateQPS: 200},
				MaxInService:   8,
				WarmupQueries:  5,
				MeasureQueries: 60,
				MaxSimTime:     20 * sim.Second,
			}); err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{"CrashedNode", func(t *testing.T) *Machine {
			m := buildRange(t, rel, crash)
			res, err := m.Run(mix, RunSpec{MPL: 4, WarmupQueries: 5, MeasureQueries: 60})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.FaultLog) == 0 {
				t.Fatal("the node crash never fired")
			}
			return m
		}},
		{"ElasticJoin", func(t *testing.T) *Machine {
			erel := elasticRelation(t)
			m := buildRange(t, erel, elasticConfig(
				rebalance.Event{At: 100 * sim.Millisecond, Kind: rebalance.Join},
			))
			res, err := m.Run(workload.LowLow(erel.Cardinality()), RunSpec{MPL: 4, WarmupQueries: 5, MeasureQueries: 300})
			if err != nil {
				t.Fatal(err)
			}
			if res.Rebalance == nil || len(res.Rebalance.Tasks) != 1 {
				t.Fatalf("rebalance report = %+v, want the join executed", res.Rebalance)
			}
			return m
		}},
		{"SimulateLoad", func(t *testing.T) *Machine {
			m := buildRange(t, rel, DefaultConfig())
			if _, err := m.SimulateLoad(); err != nil {
				t.Fatal(err)
			}
			return m
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			m := c.run(t)
			m.Close()
			m.Close() // idempotent
			settleGoroutines(t, base)
			if simtest.Active(m.Eng) != 0 || m.Eng.Pending() != 0 {
				t.Fatalf("closed engine: active=%d pending=%d", simtest.Active(m.Eng), m.Eng.Pending())
			}
		})
	}
}

// Closing a machine after a run must not change that run's results, and a
// machine whose engine a Reset replaced keeps producing the same numbers.
func TestMachineCloseDoesNotChangeResults(t *testing.T) {
	rel := smallRelation(t, 0)
	mix := workload.LowLow(rel.Cardinality())
	spec := RunSpec{MPL: 4, WarmupQueries: 5, MeasureQueries: 40}
	m := buildRange(t, rel, DefaultConfig())
	a, err := m.Run(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	b, err := m.Run(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if a.ThroughputQPS != b.ThroughputQPS || a.MeanResponseMS != b.MeanResponseMS {
		t.Fatalf("run after Close differs: %v/%v vs %v/%v q/s, ms",
			a.ThroughputQPS, a.MeanResponseMS, b.ThroughputQPS, b.MeanResponseMS)
	}
}
