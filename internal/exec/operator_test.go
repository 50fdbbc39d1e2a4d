package exec

import (
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/storage"
)

// selectionOperatorEvents is the events one select and one aux lookup
// take, from their delivery into a node's inbox to their replies'
// delivery: the count the operators made as processes.
const selectionOperatorEvents = 105

// TestSelectionOperatorMakesNoSwitches delivers a select and an aux lookup
// into a node's inbox and checks that the operators, handlers, ran in
// exactly the events their processes took.
func TestSelectionOperatorMakesNoSwitches(t *testing.T) {
	r := newOpRig(opScript{frames: 4}, false)
	defer r.eng.Close()
	before := r.eng.Stats()
	pred := core.Predicate{Attr: storage.Unique2, Lo: 10, Hi: 40}
	r.deliver(0, &startOp{QueryID: 1, Relation: r.rel.Name, Pred: pred,
		Access: plan.AccessClustered, ReplyTo: refHost})
	r.deliver(0, &auxLookup{QueryID: 2, Relation: r.rel.Name, Pred: pred, ReplyTo: refHost})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	after := r.eng.Stats()
	if n := r.nodes[0].OpsExecuted; n != 2 {
		t.Fatalf("%d operators ran, want 2", n)
	}
	if replies := len(r.log); replies != 2 {
		t.Fatalf("%d replies, want 2: %q", replies, r.log)
	}
	if d := after.Events - before.Events; d != selectionOperatorEvents {
		t.Errorf("the operators took %d events, want %d", d, selectionOperatorEvents)
	}
}

// sharedJoinEvents is the events a three-member shared batch on one node
// and a join over both nodes take, from their delivery into the nodes'
// inboxes to their replies' delivery: the count the operators made as
// processes.
const sharedJoinEvents = 1407

// TestSharedBatchAndJoinMakeNoSwitches delivers a shared-scan batch to a
// node and a join to both nodes, and checks that the batch, the join scans
// and the join operators, handlers, ran in exactly the events their
// processes took.
func TestSharedBatchAndJoinMakeNoSwitches(t *testing.T) {
	r := newOpRig(opScript{frames: 4}, false)
	defer r.eng.Close()
	before := r.eng.Stats()
	batch := &batchOp{Relation: r.rel.Name, Access: plan.AccessClustered, ReplyTo: refHost}
	for q := int64(1); q <= 3; q++ {
		batch.Members = append(batch.Members, batchMember{QID: q,
			Pred: core.Predicate{Attr: storage.Unique2, Lo: 10 * q, Hi: 10*q + 29}})
	}
	r.deliver(0, batch)
	for phase, pred := range []core.Predicate{{Attr: storage.Unique2, Lo: 0, Hi: 119}, {Attr: storage.Unique2, Lo: 60, Hi: 179}} {
		for node := range r.nodes {
			r.deliver(node, &joinScan{QueryID: 4, Relation: r.rel.Name, Attr: storage.Unique1,
				Phase: joinPhase(phase), Pred: pred, Slots: opRigNodes, ReplyTo: refHost})
		}
	}
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	after := r.eng.Stats()
	if n := r.nodes[0].OpsExecuted; n != 6 {
		t.Fatalf("%d operators ran on node 0, want 6: 3 batch members, 2 join scans and the join", n)
	}
	if replies := len(r.log) - r.packets; r.joins != 2 || replies != 5 {
		t.Fatalf("%d replies with %d join results, want 3 batch replies and 2 join results: %q", replies, r.joins, r.log)
	}
	if d := after.Events - before.Events; d != sharedJoinEvents {
		t.Errorf("the operators took %d events, want %d", d, sharedJoinEvents)
	}
}
