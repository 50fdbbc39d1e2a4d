package exec

import (
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/storage"
)

// TestConcurrentSubmitDuringCrashRestart drives many concurrent Submit
// calls through the degraded scheduler while a node crashes and restarts
// under them. Run with -race (CI does): the point is that coordinator
// processes, the retry collector and the crash/restart path share no state
// outside the engine's serialization.
func TestConcurrentSubmitDuringCrashRestart(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	r := newRig(t, core.NewRangeForRelation(rel, storage.Unique1, 2))
	r.host.Degraded = &Degraded{
		Policy: RetryPolicy{
			OpTimeout:     200 * sim.Millisecond,
			QueryDeadline: 30 * sim.Second,
			MaxRetries:    8,
			BackoffBase:   5 * sim.Millisecond,
			BackoffCap:    50 * sim.Millisecond,
		},
		Jitter: rng.NewFactory(7).Stream("jitter"),
	}

	// Chaos: node 0 goes down shortly after the first wave of queries is in
	// flight and comes back while their retries are still within budget.
	simtest.Spawn(r.eng, "chaos", func(p *simtest.Proc) {
		p.Hold(10 * sim.Millisecond)
		r.nodes[0].Crash()
		p.Hold(600 * sim.Millisecond)
		r.nodes[0].Restart()
	})

	const terminals, rounds = 8, 4
	done := 0
	var retried int
	for i := 0; i < terminals; i++ {
		i := i
		simtest.Spawn(r.eng, "term", func(p *simtest.Proc) {
			for q := 0; q < rounds; q++ {
				lo := int64((i*rounds + q) % 15 * 10)
				res := submit(p, r.host, plan.NewIndexScan(rel.Name,
					core.Predicate{Attr: storage.Unique2, Lo: lo, Hi: lo + 19}, plan.AccessClustered))
				if !res.Outcome.Succeeded() {
					t.Errorf("terminal %d query %d ended %s: %v", i, q, res.Outcome, res.Err)
				}
				if res.Retries > 0 {
					retried++
				}
			}
			done++
			if done == terminals {
				r.eng.Stop()
			}
		})
	}
	if err := r.eng.RunUntil(sim.Time(300 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if done != terminals {
		t.Fatalf("only %d of %d terminals finished", done, terminals)
	}
	if retried == 0 {
		t.Fatal("no query was retried — the crash window missed every Submit")
	}
}
