package exec

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/storage"
)

// runConcurrent drives one query per predicate, all submitted at t=0, on a
// fresh rig, and returns the per-query results in predicate order plus the
// rig for post-run inspection.
func runConcurrent(t *testing.T, share bool, preds []core.Predicate) ([]QueryResult, *rig) {
	t.Helper()
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	r := newRig(t, core.NewRangeForRelation(rel, storage.Unique1, 2))
	if share {
		r.host.EnableSharing(5 * sim.Millisecond)
	}
	results := make([]QueryResult, len(preds))
	done := 0
	for i := range preds {
		i := i
		simtest.Spawn(r.eng, "term", func(p *simtest.Proc) {
			results[i] = submit(p, r.host, selectOn(rel.Name, preds[i]))
			done++
			if done == len(preds) {
				r.eng.Stop()
			}
		})
	}
	if err := r.eng.RunUntil(sim.Time(120 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if done != len(preds) {
		t.Fatalf("only %d of %d queries completed", done, len(preds))
	}
	return results, r
}

// answer is the schedule-independent part of a QueryResult: everything a
// client would consider "the result", with timing stripped.
type answer struct {
	Pred           core.Predicate
	Tuples         int
	ProcessorsUsed int
	AuxProcessors  int
	Value          int64
	Served         []ServedOp
}

func answerOf(r QueryResult) answer {
	served := append([]ServedOp(nil), r.ServedBy...)
	// ServedBy is in completion order, which sharing may permute across
	// nodes; the per-fragment attribution must still match exactly.
	sort.Slice(served, func(i, j int) bool {
		if served[i].Fragment != served[j].Fragment {
			return served[i].Fragment < served[j].Fragment
		}
		return !served[i].Aux && served[j].Aux
	})
	return answer{
		Pred: r.Pred, Tuples: r.Tuples,
		ProcessorsUsed: r.ProcessorsUsed, AuxProcessors: r.AuxProcessors,
		Value: r.Value, Served: served,
	}
}

// TestSharedBatchMatchesUnshared is the tentpole's correctness property:
// a batch of concurrent selections executed through the shared-scan manager
// returns, query for query, exactly the answers the same selections produce
// unshared. Only timing may differ.
func TestSharedBatchMatchesUnshared(t *testing.T) {
	cases := map[string][]core.Predicate{
		"identical": func() []core.Predicate {
			preds := make([]core.Predicate, 12)
			for i := range preds {
				preds[i] = core.Predicate{Attr: storage.Unique2, Lo: 40, Hi: 79}
			}
			return preds
		}(),
		"overlapping": func() []core.Predicate {
			preds := make([]core.Predicate, 10)
			for i := range preds {
				preds[i] = core.Predicate{Attr: storage.Unique2, Lo: int64(i * 5), Hi: int64(i*5 + 30)}
			}
			return preds
		}(),
		"mixed-access": {
			{Attr: storage.Unique2, Lo: 10, Hi: 49},
			{Attr: storage.Unique2, Lo: 20, Hi: 59},
			{Attr: storage.Unique1, Lo: 100, Hi: 100},
			{Attr: storage.Unique1, Lo: 100, Hi: 100},
			{Attr: storage.Unique1, Lo: 30, Hi: 60},
		},
	}
	for name, preds := range cases {
		t.Run(name, func(t *testing.T) {
			off, _ := runConcurrent(t, false, preds)
			on, r := runConcurrent(t, true, preds)
			stats := r.host.Shared.Stats()
			if stats.SharedOps == 0 {
				t.Fatalf("no sharing happened; the property is vacuous: %+v", stats)
			}
			for i := range preds {
				a, b := answerOf(off[i]), answerOf(on[i])
				if !reflect.DeepEqual(a, b) {
					t.Errorf("query %d diverged under sharing:\nunshared %+v\nshared   %+v", i, a, b)
				}
				if on[i].Err != nil {
					t.Errorf("query %d failed under sharing: %v", i, on[i].Err)
				}
			}
			var req, read int64
			for _, n := range r.nodes {
				req += n.SharedPagesRequested
				read += n.SharedPagesRead
			}
			if req == 0 || read == 0 || read > req {
				t.Errorf("bad shared page accounting: requested %d, read %d", req, read)
			}
		})
	}
}

// TestSharedBatchDedupsPages: identical concurrent selections must collapse
// to (nearly) one disk pass — distinct pages read well below pages requested.
func TestSharedBatchDedupsPages(t *testing.T) {
	preds := make([]core.Predicate, 8)
	for i := range preds {
		preds[i] = core.Predicate{Attr: storage.Unique2, Lo: 0, Hi: 99}
	}
	_, r := runConcurrent(t, true, preds)
	stats := r.host.Shared.Stats()
	var req, read int64
	for _, n := range r.nodes {
		req += n.SharedPagesRequested
		read += n.SharedPagesRead
	}
	// 8 identical members per fragment batch: the union is one member's page
	// set, so at most ~1/8 of the requests hit the pool.
	if read*4 > req {
		t.Fatalf("identical batch barely deduped: %d read of %d requested (%s)", read, req, stats)
	}
	if stats.Batches == 0 || stats.BatchedOps != int64(len(preds)*2) {
		t.Fatalf("expected %d batched ops across 2 nodes, got %+v", len(preds)*2, stats)
	}
}

// TestSubmitIndexScanMatchesSelect: plan.Select with the workload's access
// chooser and a hand-built IndexScan are the same query — byte-identical
// results, timing included, because Select is a pure rewrite.
func TestSubmitIndexScanMatchesSelect(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	pl := core.NewRangeForRelation(rel, storage.Unique1, 2)
	pred := core.Predicate{Attr: storage.Unique2, Lo: 50, Hi: 69}

	a := newRig(t, pl).execute(t, pred)

	r := newRig(t, pl)
	var b QueryResult
	simtest.Spawn(r.eng, "probe", func(p *simtest.Proc) {
		b = submit(p, r.host, plan.NewIndexScan(rel.Name, pred, plan.AccessClustered))
		r.eng.Stop()
	})
	if err := r.eng.RunUntil(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Select and IndexScan diverged:\n%+v\n%+v", a, b)
	}
}

// TestSubmitFilterIntersection: a Filter over an IndexScan on the same
// attribute executes the intersected range.
func TestSubmitFilterIntersection(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	pl := core.NewRangeForRelation(rel, storage.Unique1, 2)

	a := newRig(t, pl).execute(t, core.Predicate{Attr: storage.Unique2, Lo: 40, Hi: 60})

	r := newRig(t, pl)
	var b QueryResult
	simtest.Spawn(r.eng, "probe", func(p *simtest.Proc) {
		b = submit(p, r.host, plan.NewFilter(
			core.Predicate{Attr: storage.Unique2, Lo: 40, Hi: 79},
			plan.NewIndexScan(rel.Name,
				core.Predicate{Attr: storage.Unique2, Lo: 30, Hi: 60}, plan.AccessClustered)))
		r.eng.Stop()
	})
	if err := r.eng.RunUntil(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("filter intersection diverged from the direct range:\n%+v\n%+v", a, b)
	}
}

// TestSubmitAggregatePlan: an Aggregate-rooted plan runs the selection's
// operators folding partials and carries the value in QueryResult.Value.
func TestSubmitAggregatePlan(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	pl := core.NewRangeForRelation(rel, storage.Unique1, 2)
	pred := core.Predicate{Attr: storage.Unique2, Lo: 0, Hi: 99}
	var want int64
	for _, tup := range rel.Tuples {
		if v := tup.Attrs[storage.Unique2]; v >= pred.Lo && v <= pred.Hi {
			want += tup.Attrs[storage.Unique1]
		}
	}

	r := newRig(t, pl)
	var got QueryResult
	simtest.Spawn(r.eng, "probe", func(p *simtest.Proc) {
		got = submit(p, r.host, plan.NewAggregate(plan.AggSum, storage.Unique1,
			plan.NewIndexScan(rel.Name, pred, plan.AccessClustered)))
		r.eng.Stop()
	})
	if err := r.eng.RunUntil(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if got.Value != want || got.Tuples != 100 || got.ProcessorsUsed != 2 {
		t.Fatalf("aggregate plan = %+v, want sum %d over 100 tuples on 2 processors", got, want)
	}
	if got.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v (%v)", got.Outcome, got.Err)
	}
}

// Sharing composes with the degraded scheduler: dispatches ride batches
// tagged with their attempt epoch, so a healthy run answers exactly like
// the lone-operator path.
func TestSharingComposesWithDegradedHealthy(t *testing.T) {
	r := newDegradedRig(t)
	s := r.host.EnableSharing(sim.Millisecond)
	res := r.execute(t)
	if res.Tuples != 20 {
		t.Fatalf("got %d tuples, want 20", res.Tuples)
	}
	if !res.Outcome.Succeeded() || res.Retries != 0 {
		t.Fatalf("outcome = %v retries = %d, want clean success", res.Outcome, res.Retries)
	}
	if st := s.Stats(); st.Batches == 0 || st.BatchedOps != 2 {
		t.Fatalf("sharing stats = %+v, want both operators batched", st)
	}
}

// A transient disk error under sharing: the failed member's error reply
// carries its attempt tag, the collector retries it through a fresh batch,
// and the query completes without double-counting — the stale-reply
// discipline for batches matches the lone-operator one.
func TestSharingComposesWithDegradedTransientFault(t *testing.T) {
	r := newDegradedRig(t)
	r.host.EnableSharing(sim.Millisecond)
	r.disks[0].FailNextReads(1)
	res := r.execute(t)
	if res.Tuples != 20 {
		t.Fatalf("got %d tuples, want 20 exactly once", res.Tuples)
	}
	if !res.Outcome.Succeeded() {
		t.Fatalf("outcome = %v, err = %v", res.Outcome, res.Err)
	}
	if res.Retries == 0 {
		t.Fatal("transient error should have cost at least one retry")
	}
}

// A batch reply that arrives after its member timed out and was retried:
// the reply's stale attempt tag must make the collector drop it rather
// than double-count. A crash-restart window forces exactly that — the
// crashed node's first batch never answers, the retry reroutes, and any
// late replies from the restarted node are stale by epoch.
func TestSharingDropsStaleBatchReplies(t *testing.T) {
	r := newDegradedRig(t)
	r.host.EnableSharing(sim.Millisecond)
	r.eng.Schedule(0, func() { r.nodes[0].Crash() })
	r.eng.Schedule(sim.Second, func() {
		r.nodes[0].Restart()
		r.view.SetNode(0, true)
	})
	res := r.execute(t)
	if res.Tuples != 20 {
		t.Fatalf("got %d tuples, want 20 exactly once", res.Tuples)
	}
	if !res.Outcome.Succeeded() {
		t.Fatalf("outcome = %v, err = %v", res.Outcome, res.Err)
	}
}
