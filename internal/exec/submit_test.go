package exec

import (
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/storage"
)

// TestSubmitParksOnce submits one query of each shape on a fault-free
// machine for a test process, which parks once, until the collector's
// final step reports the result and resumes it inside its own event, and
// checks that the query takes exactly the events of the collector's
// process form. A join's scans and join operators are handlers too, so a
// join takes the events its operators took as processes.
func TestSubmitParksOnce(t *testing.T) {
	w := core.Predicate{Attr: storage.Unique1, Lo: 20, Hi: 90}
	for _, c := range []struct {
		name   string
		q      *plan.Node
		events int64
	}{
		{"select", plan.Select("w", w, plan.AccessNonClustered), 374},
		{"two-step select", plan.Select("w", core.Predicate{Attr: storage.Unique2, Lo: 10, Hi: 60}, plan.AccessClustered), 263},
		{"aggregate", plan.NewAggregate(plan.AggSum, storage.Unique2, plan.Select("w", w, plan.AccessNonClustered)), 510},
		{"join", plan.NewJoin(storage.Unique1, plan.NewScan("s"), plan.NewScan("r")), 616},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newColRig(colScript{}, false)
			defer simtest.Close(r.eng)
			r.host.Start()
			var before, after sim.Stats
			var res QueryResult
			simtest.Spawn(r.eng, "terminal0", func(p *simtest.Proc) {
				before = r.eng.Stats()
				res = submit(p, r.host, c.q)
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
		})
	}
}

// TestCloseUnwindsSubmit closes the engine while a test process waits for
// its query: simtest.Close must unwind the process, running its deferred
// calls, and leave no process behind.
func TestCloseUnwindsSubmit(t *testing.T) {
	r := newColRig(colScript{}, false)
	r.host.Start()
	unwound, returned := false, false
	simtest.Spawn(r.eng, "terminal0", func(p *simtest.Proc) {
		defer func() { unwound = true }()
		submit(p, r.host, plan.Select("w", core.Predicate{Attr: storage.Unique2, Lo: 10, Hi: 60}, plan.AccessClustered))
		returned = true
	})
	if err := r.eng.RunUntil(sim.Time(5 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if simtest.Parked(r.eng) != 1 {
		t.Fatalf("%d processes parked mid-query, want the terminal", simtest.Parked(r.eng))
	}
	simtest.Close(r.eng)
	if !unwound || returned {
		t.Fatalf("Close left the terminal unwound=%v, returned from Submit=%v", unwound, returned)
	}
	if n := simtest.Active(r.eng); n != 0 {
		t.Fatalf("%d processes survive Close", n)
	}
}
