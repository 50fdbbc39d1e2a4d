package fault

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

// fakeDisk records the calls the injector makes, in order.
type fakeDisk struct{ calls []string }

func (d *fakeDisk) Fail()               { d.calls = append(d.calls, "fail") }
func (d *fakeDisk) Repair()             { d.calls = append(d.calls, "repair") }
func (d *fakeDisk) FailNextReads(n int) { d.calls = append(d.calls, fmt.Sprintf("transient(%d)", n)) }

type fakeNode struct{ calls []string }

func (n *fakeNode) Crash()   { n.calls = append(n.calls, "crash") }
func (n *fakeNode) Restart() { n.calls = append(n.calls, "restart") }

type fakeNet struct{ calls []string }

func (n *fakeNet) DropNext(node, k int) {
	n.calls = append(n.calls, fmt.Sprintf("drop(%d,%d)", node, k))
}
func (n *fakeNet) DupNext(node, k int) { n.calls = append(n.calls, fmt.Sprintf("dup(%d,%d)", node, k)) }

// rig builds a 2-node machine of fakes with a run that lasts until the
// event queue drains (MTBF specs need a clock, so a sentinel keeps the
// engine alive for a second).
func rig(spec Spec, seed int64) (*View, []*fakeDisk, []*fakeNode, *fakeNet, []Record, error) {
	e := sim.New()
	disks := []*fakeDisk{{}, {}}
	nodes := []*fakeNode{{}, {}}
	net := &fakeNet{}
	view := NewView(2)
	targets := Targets{
		Disks: []DiskTarget{disks[0], disks[1]},
		Nodes: []NodeTarget{nodes[0], nodes[1]},
		Net:   net,
	}
	in := NewInjector(e, spec, view, targets, rng.NewFactory(seed))
	in.Start()
	err := e.RunUntil(sim.Time(sim.Second))
	return view, disks, nodes, net, in.Log(), err
}

func TestInjectorAppliesScheduledEvents(t *testing.T) {
	spec := Spec{Events: []Event{
		{At: sim.Millisecond, Kind: DiskFail, Node: 0},
		{At: 2 * sim.Millisecond, Kind: NodeCrash, Node: 1},
		{At: 3 * sim.Millisecond, Kind: DiskTransient, Node: 1, Count: 5},
		{At: 4 * sim.Millisecond, Kind: NetDrop, Node: 0, Count: 2},
		{At: 5 * sim.Millisecond, Kind: NetDup, Node: 1},
		{At: 6 * sim.Millisecond, Kind: DiskRepair, Node: 0},
		{At: 7 * sim.Millisecond, Kind: NodeRestart, Node: 1},
	}}
	view, disks, nodes, net, log, err := rig(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := disks[0].calls; !reflect.DeepEqual(got, []string{"fail", "repair"}) {
		t.Fatalf("disk 0 calls = %v", got)
	}
	if got := disks[1].calls; !reflect.DeepEqual(got, []string{"transient(5)"}) {
		t.Fatalf("disk 1 calls = %v", got)
	}
	if got := nodes[1].calls; !reflect.DeepEqual(got, []string{"crash", "restart"}) {
		t.Fatalf("node 1 calls = %v", got)
	}
	if got := net.calls; !reflect.DeepEqual(got, []string{"drop(0,2)", "dup(1,1)"}) {
		t.Fatalf("net calls = %v", got)
	}
	if !view.Available(0) || !view.Available(1) {
		t.Fatal("view should be fully healthy after repair + restart")
	}
	if len(log) != len(spec.Events) {
		t.Fatalf("log has %d records, want %d", len(log), len(spec.Events))
	}
	if log[0].Kind != "disk-fail" || log[0].T != int64(sim.Millisecond) {
		t.Fatalf("first record = %+v", log[0])
	}
}

// A window event (Dur > 0) schedules its own complementary restore.
func TestInjectorWindowEventsRestore(t *testing.T) {
	spec := Spec{Events: []Event{
		{At: sim.Millisecond, Kind: DiskFail, Node: 0, Dur: 2 * sim.Millisecond},
		{At: sim.Millisecond, Kind: NodeCrash, Node: 1, Dur: 3 * sim.Millisecond},
	}}
	view, disks, nodes, _, log, err := rig(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := disks[0].calls; !reflect.DeepEqual(got, []string{"fail", "repair"}) {
		t.Fatalf("disk 0 calls = %v", got)
	}
	if got := nodes[1].calls; !reflect.DeepEqual(got, []string{"crash", "restart"}) {
		t.Fatalf("node 1 calls = %v", got)
	}
	if !view.Available(0) || !view.Available(1) {
		t.Fatal("view should recover after the windows close")
	}
	if len(log) != 4 {
		t.Fatalf("log has %d records, want 4 (2 faults + 2 restores)", len(log))
	}
}

// The determinism contract: same seed and spec, identical fault-event log —
// including the stochastic MTBF stream.
func TestInjectorDeterministicLog(t *testing.T) {
	spec := Spec{
		Events: []Event{{At: 10 * sim.Millisecond, Kind: DiskFail, Node: 0, Dur: 50 * sim.Millisecond}},
		MTBF:   20 * sim.Millisecond,
	}
	_, _, _, _, log1, err := rig(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, _, log2, err := rig(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(log1) < 10 {
		t.Fatalf("MTBF 20ms over a 1s run produced only %d records", len(log1))
	}
	if !reflect.DeepEqual(log1, log2) {
		t.Fatalf("same seed+spec produced different logs:\n%v\n%v", log1, log2)
	}
	_, _, _, _, log3, err := rig(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(log1, log3) {
		t.Fatal("different seeds produced identical MTBF schedules")
	}
}

func TestSpecEnabled(t *testing.T) {
	var nilSpec *Spec
	if nilSpec.Enabled() {
		t.Fatal("nil spec enabled")
	}
	if (&Spec{}).Enabled() {
		t.Fatal("empty spec enabled")
	}
	cases := []Spec{
		{Events: []Event{{Kind: DiskFail}}},
		{MTBF: sim.Second},
	}
	for i, s := range cases {
		if !s.Enabled() {
			t.Fatalf("case %d should be enabled", i)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	good := Spec{Events: []Event{{At: sim.Millisecond, Kind: NodeCrash, Node: 3}}, MTBF: sim.Second}
	if err := good.Validate(4); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	bad := []Spec{
		{Events: []Event{{At: -1, Kind: DiskFail}}},
		{Events: []Event{{Kind: Kind(99)}}},
		{Events: []Event{{Kind: DiskFail, Node: 4}}},
		{Events: []Event{{Kind: DiskFail, Node: -1}}},
		{Events: []Event{{Kind: DiskFail, Dur: -sim.Second}}},
		{MTBF: -sim.Second},
	}
	for i, s := range bad {
		if err := s.Validate(4); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
	var nilSpec *Spec
	if err := nilSpec.Validate(4); err != nil {
		t.Fatalf("nil spec rejected: %v", err)
	}
}

// Nil targets (or out-of-range nodes in partial rigs) make events no-ops
// rather than panics.
func TestInjectorToleratesMissingTargets(t *testing.T) {
	e := sim.New()
	view := NewView(4)
	spec := Spec{Events: []Event{
		{At: sim.Millisecond, Kind: DiskFail, Node: 3},
		{At: sim.Millisecond, Kind: NodeCrash, Node: 3},
		{At: sim.Millisecond, Kind: NetDrop, Node: 3},
	}}
	in := NewInjector(e, spec, view, Targets{}, nil)
	in.Start()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(in.Log()) != 3 {
		t.Fatalf("log holds %d records, want 3 (events still logged)", len(in.Log()))
	}
	if view.Available(3) {
		t.Fatal("view must still track the failure")
	}
}
