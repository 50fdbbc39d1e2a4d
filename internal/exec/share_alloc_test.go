//go:build !race

package exec

import (
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
)

// TestSharedEnqueueAllocs guards the batching hot path: once a batch is
// open, admitting a member is a map lookup plus an amortized append —
// enqueue runs once per operator per query at MPL-scale rates, so per-call
// garbage here would show up in every sharing experiment.
func TestSharedEnqueueAllocs(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	r := newRig(t, core.NewRangeForRelation(rel, storage.Unique1, 2))
	s := r.host.EnableSharing(5 * sim.Millisecond)
	pred := core.Predicate{Attr: storage.Unique2, Lo: 0, Hi: 9}

	// First member opens the batch and spawns the flusher — not the path
	// under test.
	s.enqueue(0, rel.Name, pred, plan.AccessClustered, 1, 0, Primary, 0)
	qid := int64(2)
	avg := testing.AllocsPerRun(2000, func() {
		s.enqueue(0, rel.Name, pred, plan.AccessClustered, qid, 0, Primary, 0)
		qid++
	})
	if avg > 1 {
		t.Errorf("enqueue on an open batch allocates %.2f/op, want amortized <= 1", avg)
	}
}
