package exec

import (
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
)

// TestSubmitParksOnce submits one query of each shape on a fault-free
// machine and checks that the submitting process parks once: from Submit
// to its return it costs exactly one coroutine switch (the final step's
// resume) and spawns nothing, in exactly the events of the collector's
// process form. A join's scans and join operators are handlers too, so a
// join makes that one switch as well, in the events its operators took as
// processes.
func TestSubmitParksOnce(t *testing.T) {
	w := core.Predicate{Attr: storage.Unique1, Lo: 20, Hi: 90}
	for _, c := range []struct {
		name     string
		q        *plan.Node
		events   int64
		switches int64
		spawns   int64
	}{
		{"select", plan.Select("w", w, plan.AccessNonClustered), 374, 1, 0},
		{"two-step select", plan.Select("w", core.Predicate{Attr: storage.Unique2, Lo: 10, Hi: 60}, plan.AccessClustered), 263, 1, 0},
		{"aggregate", plan.NewAggregate(plan.AggSum, storage.Unique2, plan.Select("w", w, plan.AccessNonClustered)), 510, 1, 0},
		{"join", plan.NewJoin(storage.Unique1, plan.NewScan("s"), plan.NewScan("r")), 616, 1, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newColRig(colScript{}, false)
			defer r.eng.Close()
			r.host.Start()
			var before, after sim.Stats
			var res QueryResult
			r.eng.Spawn("terminal0", func(p *sim.Proc) {
				before = r.eng.Stats()
				res = r.host.Submit(p, c.q)
				after = r.eng.Stats()
			})
			if err := r.eng.Run(); err != nil {
				t.Fatal(err)
			}
			if res.Completed == 0 || res.Outcome != OutcomeOK || res.Tuples == 0 {
				t.Fatalf("the query did not complete with tuples: %+v", res)
			}
			if d := after.Events - before.Events; d != c.events {
				t.Errorf("the query took %d events, want %d", d, c.events)
			}
			if d := after.Switches - before.Switches; d != c.switches {
				t.Errorf("the query made %d coroutine switches, want %d", d, c.switches)
			}
			if d := after.Spawns - before.Spawns; d != c.spawns {
				t.Errorf("the query spawned %d processes, want %d", d, c.spawns)
			}
		})
	}
}

// TestCloseUnwindsSubmit closes the engine while a terminal is parked in
// Submit: Close must unwind the process, running its deferred calls, and
// leave no process behind.
func TestCloseUnwindsSubmit(t *testing.T) {
	r := newColRig(colScript{}, false)
	r.host.Start()
	unwound, returned := false, false
	r.eng.Spawn("terminal0", func(p *sim.Proc) {
		defer func() { unwound = true }()
		r.host.Submit(p, plan.Select("w", core.Predicate{Attr: storage.Unique2, Lo: 10, Hi: 60}, plan.AccessClustered))
		returned = true
	})
	if err := r.eng.RunUntil(sim.Time(5 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if r.eng.Parked() != 1 {
		t.Fatalf("%d processes parked mid-query, want the terminal", r.eng.Parked())
	}
	r.eng.Close()
	if !unwound || returned {
		t.Fatalf("Close left the terminal unwound=%v, returned from Submit=%v", unwound, returned)
	}
	if n := r.eng.Active(); n != 0 {
		t.Fatalf("%d processes survive Close", n)
	}
}
