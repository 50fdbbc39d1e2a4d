package gamma

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/rebalance"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

const elasticResultGolden = "testdata/elastic_result.golden"

// TestElasticResultGolden pins a complete elastic serving run with every
// per-fragment subsystem armed: a four-node BERD machine with chained
// replicas, heat and telemetry serves Poisson arrivals at 100 q/s while the
// schedule joins a standby (staging primaries, auxiliary trees and chain
// replicas onto it) and then decommissions a member. The golden holds the
// whole ServeResult as JSON — serving statistics, heat snapshot and
// hot-fragment report, the rebalance report, and every time series,
// including the standby's — so any drift in how nodes stage, cut over,
// resolve or charge heat to their fragments shows up here. Regenerate with
// -update-traces only for a change that means to alter this schedule.
func TestElasticResultGolden(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 2000, Seed: 11})
	berd := func(rel *storage.Relation, procs int) core.Placement {
		return core.NewBERDForRelation(rel, storage.Unique1, []int{storage.Unique2}, procs)
	}
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.ChainedReplicas = true
	cfg.Heat = &HeatSpec{}
	cfg.Telemetry = &TelemetrySpec{Window: 100 * sim.Millisecond}
	cfg.Elastic = &ElasticSpec{
		Events: []rebalance.Event{
			{At: 200 * sim.Millisecond, Kind: rebalance.Join},
			{At: 900 * sim.Millisecond, Kind: rebalance.Decommission, Node: 1},
		},
		Rebuild: func(rel *storage.Relation, procs int) (core.Placement, error) {
			return berd(rel, procs), nil
		},
	}
	m, err := Build(rel, berd(rel, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	res, err := m.RunServe(workload.LowLow(rel.Cardinality()), ServeSpec{
		Arrival:        serve.ArrivalSpec{Kind: serve.Poisson, RateQPS: 100},
		WarmupQueries:  5,
		MeasureQueries: 500,
		MaxSimTime:     30 * sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep := res.Rebalance; rep == nil || len(rep.Tasks) != 2 {
		t.Fatalf("rebalance report = %+v, want join + decommission", rep)
	}
	for _, task := range res.Rebalance.Tasks {
		if task.Err != "" {
			t.Fatalf("task %s on node %d failed: %s", task.Kind, task.Node, task.Err)
		}
	}
	got, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	checkTraceGolden(t, elasticResultGolden, append(got, '\n'))
}
