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
// into a node's inbox and checks that the operators ran as handlers, with
// no coroutine switch, spawn or coroutine, in exactly the events their
// processes took.
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
	if d := after.Switches - before.Switches; d != 0 {
		t.Errorf("the operators made %d coroutine switches, want 0", d)
	}
	if d := after.Spawns - before.Spawns; d != 0 {
		t.Errorf("the operators spawned %d processes, want 0", d)
	}
	if d := after.CoroutinesCreated - before.CoroutinesCreated; d != 0 {
		t.Errorf("the operators created %d coroutines, want 0", d)
	}
	if d := after.Events - before.Events; d != selectionOperatorEvents {
		t.Errorf("the operators took %d events, want %d", d, selectionOperatorEvents)
	}
}
