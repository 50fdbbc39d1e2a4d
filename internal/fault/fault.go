// Package fault is the deterministic fault-injection subsystem. A Spec
// describes what goes wrong — scheduled fail-stop disks and node
// crash/restart windows, and stochastic transient read errors — and an
// Injector turns it into ordinary simulation events against the hardware
// and execution layers, so a run with a fixed seed and spec is exactly
// reproducible: same fault-event log, same figure output. With no spec
// armed, nothing in this package touches the simulation and runs stay
// byte-identical to a fault-free build.
//
// The package deliberately knows nothing about the concrete hardware or
// executor types: targets are small interfaces (DiskTarget, NodeTarget)
// that hw.Disk and exec.Node satisfy, which keeps the dependency arrow
// pointing from the machine assembly (internal/gamma) into here rather
// than the other way around.
package fault

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Kind enumerates the fault-event taxonomy (DESIGN.md §8).
type Kind int

const (
	// DiskFail fail-stops a node's disk: queued and in-flight requests
	// abort and new requests are rejected until DiskRepair.
	DiskFail Kind = iota
	// DiskRepair brings a fail-stopped disk back.
	DiskRepair
	// DiskTransient records a transient read error the MTBF loops inject;
	// it is not a scheduled kind.
	DiskTransient
	// Kind 3 is unused: JSON archives store a kind as its number, so the
	// kinds after it keep their values.
	_
	// NodeCrash fail-silences a node: its inbox drops traffic and in-flight
	// operators' replies are suppressed, until NodeRestart.
	NodeCrash
	// NodeRestart brings a crashed node back (losing nothing but the
	// messages that arrived while it was down).
	NodeRestart
)

var kindNames = [...]string{
	DiskFail:      "disk-fail",
	DiskRepair:    "disk-repair",
	DiskTransient: "disk-transient",
	NodeCrash:     "node-crash",
	NodeRestart:   "node-restart",
}

func (k Kind) String() string {
	if !k.known() {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// known reports whether k names a fault kind.
func (k Kind) known() bool { return k >= 0 && int(k) < len(kindNames) && kindNames[k] != "" }

// Event is one scheduled fault.
type Event struct {
	At   sim.Duration `json:"at"` // offset from the start of the run
	Kind Kind         `json:"kind"`
	Node int          `json:"node"`
	// Dur bounds window kinds: a DiskFail/NodeCrash with Dur > 0 schedules
	// its own repair/restart Dur later. Dur == 0 means the condition holds
	// for the rest of the run.
	Dur sim.Duration `json:"dur,omitempty"`
}

// Spec is a complete fault schedule for one run.
type Spec struct {
	// Events are applied at their At offsets, in slice order for equal
	// offsets.
	Events []Event `json:"events,omitempty"`
	// MTBF > 0 arms stochastic transient read errors: each disk draws
	// exponentially distributed inter-fault gaps with this mean from its
	// own rng stream, and at each fault its next read fails once.
	MTBF sim.Duration `json:"mtbf,omitempty"`
}

// Enabled reports whether the spec injects anything at all.
func (s *Spec) Enabled() bool {
	return s != nil && (len(s.Events) > 0 || s.MTBF > 0)
}

// Validate checks the spec against a machine of the given node count.
func (s *Spec) Validate(nodes int) error {
	if s == nil {
		return nil
	}
	for i, ev := range s.Events {
		if ev.At < 0 {
			return fmt.Errorf("fault: event %d: negative offset %v", i, ev.At)
		}
		if !ev.Kind.known() {
			return fmt.Errorf("fault: event %d: unknown kind %d", i, int(ev.Kind))
		}
		if ev.Kind == DiskTransient {
			return fmt.Errorf("fault: event %d: %v is not a scheduled kind (MTBF injects transients)", i, ev.Kind)
		}
		if ev.Node < 0 || ev.Node >= nodes {
			return fmt.Errorf("fault: event %d: node %d out of range [0,%d)", i, ev.Node, nodes)
		}
		if ev.Dur < 0 {
			return fmt.Errorf("fault: event %d: negative duration %v", i, ev.Dur)
		}
	}
	if s.MTBF < 0 {
		return fmt.Errorf("fault: negative MTBF %v", s.MTBF)
	}
	return nil
}

// Record is one applied fault in the run's fault-event log. The log is part
// of the determinism contract: two runs with the same seed and spec produce
// identical logs.
type Record struct {
	T      int64  `json:"t_ns"` // simulation time the fault was applied
	Kind   string `json:"kind"`
	Node   int    `json:"node"`
	Detail string `json:"detail,omitempty"`
}

// View is the host's (instantaneously consistent) picture of which nodes
// can serve requests; degraded-mode routing consults it before dispatching.
// The injector keeps it in step with the faults it applies.
type View struct {
	diskOK []bool
	nodeUp []bool
}

// NewView creates an all-healthy view over nodes nodes.
func NewView(nodes int) *View {
	v := &View{diskOK: make([]bool, nodes), nodeUp: make([]bool, nodes)}
	for i := range v.diskOK {
		v.diskOK[i] = true
		v.nodeUp[i] = true
	}
	return v
}

// Available reports whether the node can serve fragment requests: it is up
// and its disk works.
func (v *View) Available(node int) bool { return v.nodeUp[node] && v.diskOK[node] }

// SetDisk updates the disk-health belief for a node.
func (v *View) SetDisk(node int, ok bool) { v.diskOK[node] = ok }

// SetNode updates the liveness belief for a node.
func (v *View) SetNode(node int, up bool) { v.nodeUp[node] = up }

// DiskTarget is the disk surface the injector drives; hw.Disk satisfies it.
type DiskTarget interface {
	Fail()
	Repair()
	FailNextReads(n int)
}

// NodeTarget is the node surface the injector drives; exec.Node satisfies
// it.
type NodeTarget interface {
	Crash()
	Restart()
}

// Targets binds the injector to one machine's concrete components. Nil
// entries make the corresponding event kinds no-ops, which keeps partial
// test rigs easy to build.
type Targets struct {
	Disks []DiskTarget
	Nodes []NodeTarget
}

// Injector applies a Spec to a machine as ordinary simulation events.
type Injector struct {
	eng     *sim.Engine
	spec    Spec
	view    *View
	targets Targets
	streams *rng.Factory

	log []Record

	// OnEvent, when non-nil, observes every applied fault event after its
	// effect has taken hold. The machine layer uses it to promote permanent
	// node failures into rebalancer repair tasks.
	OnEvent func(Event)
}

// NewInjector builds an injector. streams supplies the MTBF loops'
// per-disk rng streams ("fault.mtbf.<node>"); it may be nil when the spec
// schedules explicit events only.
func NewInjector(eng *sim.Engine, spec Spec, view *View, targets Targets, streams *rng.Factory) *Injector {
	return &Injector{eng: eng, spec: spec, view: view, targets: targets, streams: streams}
}

// Start schedules every event in the spec and starts the MTBF fault
// loops. Call once, before the run begins.
func (in *Injector) Start() {
	for _, ev := range in.spec.Events {
		ev := ev
		in.eng.Schedule(ev.At, func() { in.apply(ev) })
	}
	if in.spec.MTBF > 0 && in.streams != nil {
		for i := range in.targets.Disks {
			// Disk i's MTBF loop: every event after its first fails the
			// disk's next read, and every event schedules the next one an
			// exponential gap later.
			src := in.streams.Stream(fmt.Sprintf("fault.mtbf.%d", i))
			gap := func() sim.Duration { return sim.Duration(src.Exponential(float64(in.spec.MTBF))) }
			var fire func()
			fire = func() {
				if d := in.disk(i); d != nil {
					d.FailNextReads(1)
					in.record(DiskTransient, i, "mtbf")
				}
				in.eng.Schedule(gap(), fire)
			}
			in.eng.Schedule(0, func() { in.eng.Schedule(gap(), fire) })
		}
	}
}

func (in *Injector) disk(node int) DiskTarget {
	if node < 0 || node >= len(in.targets.Disks) {
		return nil
	}
	return in.targets.Disks[node]
}

func (in *Injector) node(node int) NodeTarget {
	if node < 0 || node >= len(in.targets.Nodes) {
		return nil
	}
	return in.targets.Nodes[node]
}

// apply performs one event now, updates the host view, logs it, and — for
// window events — schedules the complementary restore.
func (in *Injector) apply(ev Event) {
	detail := ""
	switch ev.Kind {
	case DiskFail:
		if d := in.disk(ev.Node); d != nil {
			d.Fail()
		}
		in.view.SetDisk(ev.Node, false)
		if ev.Dur > 0 {
			restore := Event{At: ev.Dur, Kind: DiskRepair, Node: ev.Node}
			in.eng.Schedule(ev.Dur, func() { in.apply(restore) })
			detail = fmt.Sprintf("for %v", ev.Dur)
		}
	case DiskRepair:
		if d := in.disk(ev.Node); d != nil {
			d.Repair()
		}
		in.view.SetDisk(ev.Node, true)
	case NodeCrash:
		if n := in.node(ev.Node); n != nil {
			n.Crash()
		}
		in.view.SetNode(ev.Node, false)
		if ev.Dur > 0 {
			restore := Event{At: ev.Dur, Kind: NodeRestart, Node: ev.Node}
			in.eng.Schedule(ev.Dur, func() { in.apply(restore) })
			detail = fmt.Sprintf("for %v", ev.Dur)
		}
	case NodeRestart:
		if n := in.node(ev.Node); n != nil {
			n.Restart()
		}
		in.view.SetNode(ev.Node, true)
	}
	in.record(ev.Kind, ev.Node, detail)
	if in.OnEvent != nil {
		in.OnEvent(ev)
	}
}

// record appends to the fault-event log and mirrors the fault into the
// trace.
func (in *Injector) record(k Kind, node int, detail string) {
	in.log = append(in.log, Record{T: int64(in.eng.Now()), Kind: k.String(), Node: node, Detail: detail})
	if in.eng.Tracing() {
		name := k.String()
		if detail != "" {
			name += " " + detail
		}
		in.eng.EmitNow(obs.TraceEvent{
			Node: node, Kind: obs.KindInstant, Category: "fault", Name: name,
		})
	}
}

// Log returns the fault-event log in application order.
func (in *Injector) Log() []Record { return in.log }
