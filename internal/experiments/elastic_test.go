package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// elasticTestInputs use a small relation (a rebalance copy pays real disk
// latency per page) and enough measured completions at λ=100 q/s for both
// transitions' copy windows to drain before the run ends.
func elasticTestInputs() ([]Figure, Options, ElasticOptions) {
	figs := []Figure{{
		ID:         "e1",
		Title:      "Elastic scale-out",
		Mix:        workload.LowLow,
		Strategies: []string{StrategyRange, StrategyHash},
	}}
	opts := Options{
		Cardinality:    1000,
		Processors:     4,
		WarmupQueries:  5,
		MeasureQueries: 300,
		Seed:           7,
	}
	eopts := ElasticOptions{
		Arrival: serve.Poisson,
		Lambda:  100,
		JoinAt:  200 * sim.Millisecond,
		LeaveAt: 900 * sim.Millisecond,
	}
	return figs, opts, eopts
}

// A join plus a decommission under open load, for every strategy that can
// rebuild at arbitrary node counts: both transitions execute, data moves,
// no query fails, and the campaign reports a positive time-to-rebalance
// plus the greppable summary line.
func TestRunElasticExecutesSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs are slow")
	}
	figs, opts, eopts := elasticTestInputs()
	res, err := RunScenario(ElasticScenario(figs, opts, eopts), CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Elastic()[0]
	if len(fr.Points) != 2 {
		t.Fatalf("got %d points, want 2 (range, hash at one size)", len(fr.Points))
	}
	for _, p := range fr.Points {
		rep := p.Result.Rebalance
		if rep == nil || len(rep.Tasks) != 2 {
			t.Fatalf("%s: rebalance report %+v, want join + decommission", p.Strategy, rep)
		}
		for _, task := range rep.Tasks {
			if task.Err != "" {
				t.Fatalf("%s: task %s failed: %s", p.Strategy, task.Kind, task.Err)
			}
		}
		if p.TimeToRebalance <= 0 {
			t.Fatalf("%s: time-to-rebalance %v, want > 0", p.Strategy, p.TimeToRebalance)
		}
		if p.BytesMoved == 0 || p.PagesMoved == 0 {
			t.Fatalf("%s: no data moved (%d pages, %d bytes)", p.Strategy, p.PagesMoved, p.BytesMoved)
		}
		if p.Result.Serve.Outcomes.Failed != 0 {
			t.Fatalf("%s: %d failed queries during rebalance", p.Strategy, p.Result.Serve.Outcomes.Failed)
		}
		if !strings.Contains(p.Summary, "rebalance summary:") {
			t.Fatalf("%s: summary %q missing the greppable prefix", p.Strategy, p.Summary)
		}
		if p.GoodputDip < 0 || p.GoodputDip > 1 {
			t.Fatalf("%s: goodput dip %g outside [0, 1]", p.Strategy, p.GoodputDip)
		}
	}
	tb := fr.Table()
	if tb == nil || len(fr.Points) == 0 {
		t.Fatal("elasticity table rendered nothing")
	}
}

// The elasticity campaign must reassemble identically at any worker count.
func TestRunElasticDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs are slow")
	}
	figs, opts, eopts := elasticTestInputs()
	// One transition is enough to exercise the controller here.
	eopts.LeaveAt = -1
	opts.MeasureQueries = 150
	run := func(workers int) []ElasticPoint {
		res, err := RunScenario(ElasticScenario(figs, opts, eopts), CampaignOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res.Elastic()[0].Points
	}
	serial, parallel := run(1), run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("workers=1 and workers=4 disagree:\n%+v\nvs\n%+v", serial, parallel)
	}
}
