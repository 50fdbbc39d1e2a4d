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

var (
	accessSink storage.Access
	replySink  hw.Message
)

// TestOperatorDispatchAllocs guards the per-operator cost of the Operator
// Manager: one startOp, from its delivery into the node's inbox until its
// reply reaches the query collector's reply queue on the host, may
// allocate what its access method allocates and the boxing of its reply's
// payload into the hw.Message, each measured here, and nothing else: no
// sim.Proc (the operator is a handler), no closure, no name, no
// per-message relay state.
func TestOperatorDispatchAllocs(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	r := newRig(t, core.NewRangeForRelation(rel, storage.Unique1, 2))
	pred := core.Predicate{Attr: storage.Unique2, Lo: 0, Hi: 49}
	qid := int64(7)
	msg := hw.Message{From: r.host.ID, To: 0, Bytes: controlBytes, Payload: &startOp{
		QueryID: qid, Relation: rel.Name, Pred: pred, Access: plan.AccessClustered, ReplyTo: r.host.ID,
	}}
	col := &collector{mb: sim.NewMailbox[any](r.eng, "host.replies")}
	r.host.pending[qid] = col
	inbox := r.net.Inbox(0)
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
		tuples = reply.(opResult).Tuples
	}
	// Warm the buffer pool, the engine's pools and the node's operator
	// records.
	for i := 0; i < 10; i++ {
		deliver()
	}
	if tuples == 0 {
		t.Fatal("the operator found no tuples")
	}
	dispatch := testing.AllocsPerRun(100, deliver)

	hold, err := r.nodes[0].Resolve(rel.Name, Primary, 0)
	if err != nil {
		t.Fatal(err)
	}
	access := testing.AllocsPerRun(100, func() {
		accessSink, err = accessFor(hold.Frag, plan.AccessClustered, pred, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	reply := testing.AllocsPerRun(100, func() {
		replySink.Payload = opResult{QueryID: qid, Node: 0, Tuples: tuples}
	})
	if dispatch > access+reply {
		t.Fatalf("one operator allocates %v, want <= %v: %v in the access method and %v boxing the reply",
			dispatch, access+reply, access, reply)
	}
}
