//go:build !race

package exec

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
)

// TestOperatorDispatchAllocs guards the per-operator cost of the Operator
// Manager: one startOp, from its delivery into the node's inbox until its
// reply reaches the query collector's reply queue on the host, allocates
// nothing once the node is warm: no sim.Proc (the operator is a handler),
// no closure, no name, no per-message relay state, no page or slot list
// (the operator record keeps its own) and no boxed reply (the record
// travels back as its own reply).
func TestOperatorDispatchAllocs(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	r := newRig(t, core.NewRangeForRelation(rel, storage.Unique1, 2))
	qid := int64(7)
	col := &collector{mb: sim.NewMailbox[any](r.eng, "host.replies")}
	r.host.pending[qid] = col
	inbox := r.net.Inbox(0)
	for _, tc := range []struct {
		access plan.Access
		pred   core.Predicate
	}{
		{plan.AccessClustered, core.Predicate{Attr: storage.Unique2, Lo: 0, Hi: 49}},
		{plan.AccessNonClustered, core.Predicate{Attr: storage.Unique1, Lo: 0, Hi: 49}},
	} {
		msg := hw.Message{From: r.host.ID, To: 0, Bytes: controlBytes, Payload: &startOp{
			QueryID: qid, Relation: rel.Name, Pred: tc.pred, Access: tc.access, ReplyTo: r.host.ID,
		}}
		tuples := 0
		deliver := func() {
			inbox.Put(msg)
			if err := r.eng.Run(); err != nil {
				t.Fatal(err)
			}
			reply, ok := col.mb.Take()
			if !ok {
				t.Fatal("the operator sent no reply")
			}
			tuples = reply.(*startOp).Tuples
		}
		// Warm the buffer pool, the engine's pools and the node's operator
		// records.
		for i := 0; i < 10; i++ {
			deliver()
		}
		if tuples == 0 {
			t.Fatalf("the %v operator found no tuples", tc.access)
		}
		if n := testing.AllocsPerRun(100, deliver); n != 0 {
			t.Errorf("one %v operator allocates %v, want 0", tc.access, n)
		}
	}
}
