//go:build !race

package gamma

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
)

// TestSteadyStateQueryAllocs guards what one simulated query allocates on a
// warm machine: a terminal submits the same plan again and again, and
// after a warm-up a selection, a BERD two-step selection and an aggregate
// allocate only the result's ServedBy, sized once, which the caller
// keeps. Request records, operator records, their page, slot and TID
// lists, replies and routes over consecutive processors are all reused.
// (A MAGIC route allocates its participant list as well; core's
// MAGICRouteAllocs pins that.)
//
// A join still allocates per query: its four scan requests, each join
// operator's worker, hash table (and its growth) and mailbox, each scan's
// slot and key lists, and its boxed batches, end markers and match
// reports. Its bound is what this two-node join costs, so that it cannot
// grow unnoticed.
func TestSteadyStateQueryAllocs(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 2000, Seed: 3})
	const procs = 2
	rangePl := core.NewRangeForRelation(rel, storage.Unique1, procs)
	berd := core.NewBERDForRelation(rel, storage.Unique1, []int{storage.Unique2}, procs)
	byUnique1 := core.Predicate{Attr: storage.Unique1, Lo: 100, Hi: 1299}
	byUnique2 := core.Predicate{Attr: storage.Unique2, Lo: 100, Hi: 149}
	for _, tc := range []struct {
		name  string
		pl    core.Placement
		query *plan.Node
		max   float64
	}{
		{"clustered select", rangePl, plan.Select(rel.Name, byUnique2, plan.AccessClustered), 1},
		{"non-clustered select", rangePl, plan.Select(rel.Name, byUnique1, plan.AccessNonClustered), 1},
		{"BERD two-step", berd, plan.Select(rel.Name, byUnique2, plan.AccessClustered), 1},
		{"aggregate", rangePl, plan.NewAggregate(plan.AggSum, storage.Unique1,
			plan.Select(rel.Name, byUnique2, plan.AccessClustered)), 1},
		{"join", rangePl, plan.NewJoin(storage.Unique1,
			plan.Select(rel.Name, core.Predicate{Attr: storage.Unique1, Lo: 0, Hi: 39}, plan.AccessNonClustered),
			plan.Select(rel.Name, core.Predicate{Attr: storage.Unique1, Lo: 20, Hi: 59}, plan.AccessNonClustered)), 56},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Build(rel, tc.pl, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			next := sim.NewMailbox[struct{}](m.Eng, "next")
			tuples := 0
			m.Eng.Spawn("terminal", func(p *sim.Proc) {
				for {
					next.Get(p)
					res := m.Host.Submit(p, tc.query)
					if !res.Outcome.Succeeded() {
						panic(fmt.Sprintf("query failed: %v", res.Err))
					}
					tuples = res.Tuples
				}
			})
			query := func() {
				next.Put(struct{}{})
				if err := m.Eng.Run(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 50; i++ {
				query()
			}
			if tuples == 0 {
				t.Fatal("the query found no tuples")
			}
			if n := testing.AllocsPerRun(200, query); n > tc.max {
				t.Errorf("one query allocates %v, want at most %v", n, tc.max)
			}
		})
	}
}
