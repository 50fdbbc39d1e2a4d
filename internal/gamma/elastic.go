package gamma

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/rebalance"
	"repro/internal/storage"
)

// ElasticSpec arms elastic cluster membership: a planned schedule of node
// joins/leaves/decommissions executed by a rebalance.Controller as
// stage → throttled background copy → atomic cutover, plus promotion of
// permanent node crashes (fault events with Dur == 0) into repair tasks.
// Nil (the default) builds no standby nodes, installs no controller, and
// leaves the simulation schedule byte-identical to a build without
// elasticity support.
type ElasticSpec struct {
	// Events is the planned membership schedule, offsets ascending. Join
	// events draw standby physical ids in order; the machine builds one
	// standby node per Join beyond the initial membership.
	Events []rebalance.Event
	// RatePagesPerSec throttles the background copier; <= 0 selects
	// rebalance.DefaultRatePagesPerSec.
	RatePagesPerSec int
	// Rebuild produces a relation's placement for a new processor count.
	// Required: every transition rebuilds each relation's placement from
	// scratch at the new membership size, which is what makes the
	// post-rebalance layout provably equal to a from-scratch build.
	Rebuild func(rel *storage.Relation, procs int) (core.Placement, error)
}

// validate checks the schedule against the initial membership.
func (s *ElasticSpec) validate(processors int) error {
	if s == nil {
		return nil
	}
	if s.Rebuild == nil {
		return fmt.Errorf("gamma: elastic spec requires a Rebuild placement factory")
	}
	sched := rebalance.Schedule{Events: s.Events}
	return sched.Validate(processors)
}

// schedule returns the validated rebalance schedule.
func (s *ElasticSpec) schedule() rebalance.Schedule {
	return rebalance.Schedule{Events: s.Events}
}

// rate returns the copier throttle.
func (s *ElasticSpec) rate() int {
	if s.RatePagesPerSec > 0 {
		return s.RatePagesPerSec
	}
	return rebalance.DefaultRatePagesPerSec
}

// elasticIO adapts the copier's page I/O onto the machine: reads go
// through the source node's buffer pool (migration competes for — and
// warms — the cache exactly like a query scan), writes go straight to the
// destination disk. Neither touches the node's operator manager, so a
// crashed node's disk remains readable — a node crash is not a disk
// failure, which is what lets repair drain a dead member's data. Its
// embedded pageIO is the page I/O in progress, which Step and Err go on
// with.
type elasticIO struct {
	pageIO
	nodes []*exec.Node
	read  buffer.PageRead
	write hw.DiskWrite
}

// pageIO is a page read's or write's step form after its start.
type pageIO interface {
	Step() bool
	Err() error
}

func (io *elasticIO) Start(w hw.Waiter, write bool, node, page int) bool {
	if write {
		io.pageIO = &io.write
		return io.write.Start(io.nodes[node].Disk, w, page)
	}
	io.pageIO = &io.read
	return io.read.Start(io.nodes[node].Pool, w, page, nil)
}

// elasticExec implements rebalance.Executor over the machine: Prepare
// stages the complete next-generation layout on the member nodes (old
// generation keeps serving) and returns the minimal page-move plan;
// Cutover atomically installs it everywhere. Both run inside one of the
// controller's events. All of its state is per run: a generation's
// fragments live on that run's nodes and its placements on that run's
// host, so the machine's storage image is never touched and the next run
// starts again from the built layout.
type elasticExec struct {
	m *Machine
	// topo maps placement slot -> physical node for the serving
	// generation; starts as the identity over the initial membership.
	topo []int
	// staged holds each relation's next-generation placement between
	// Prepare and Cutover, keyed by relation name.
	staged map[string]core.Placement
}

// Prepare rebuilds every relation's placement at the new membership size,
// stages fragments/indexes (and chain replicas) on the member nodes, and
// returns the move plan. Only tuples whose physical home changes cost
// I/O: same-node re-layout is free (the disk already holds the data;
// rewriting it in place is not the scarce resource the model charges), and
// BERD auxiliary rebuilds are likewise uncharged — both approximations are
// documented in DESIGN.md §13.
func (x *elasticExec) Prepare(t rebalance.Transition) (rebalance.Plan, error) {
	m := x.m
	nNew := len(t.Members)
	x.staged = make(map[string]core.Placement, len(m.img.rels))
	var plan rebalance.Plan
	for _, r := range m.img.rels {
		name := r.rel.Name
		newPl, err := m.Cfg.Elastic.Rebuild(r.rel, nNew)
		if err != nil {
			return rebalance.Plan{}, fmt.Errorf("gamma: rebuild %s at %d nodes: %w", name, nNew, err)
		}
		if newPl.Processors() != nNew {
			return rebalance.Plan{}, fmt.Errorf("gamma: rebuild %s returned a %d-processor placement, want %d",
				name, newPl.Processors(), nNew)
		}

		// Locate every tuple's serving copy: old slot -> physical node via
		// the current topology, page via the fragment layout.
		// A TID is the tuple's position in the relation, so the
		// locations are a slice indexed by TID.
		type loc struct {
			node, page int
			held       bool
		}
		oldLoc := make([]loc, len(r.rel.Tuples))
		for _, phys := range x.topo {
			held, err := m.Nodes[phys].Resolve(name, exec.Primary, t.Gen-1)
			if err != nil {
				return rebalance.Plan{}, err
			}
			for i := range held.Frag.NumTuples() {
				oldLoc[held.Frag.Tuple(i).TID] = loc{node: phys, page: held.Frag.DataPageOfSlot(i), held: true}
			}
		}

		// Stage the next generation on the members, laid out on the run's
		// allocators after the image, and collect the tuples whose physical
		// home changes.
		h, err := m.img.layOut(r.rel, newPl, m.allocs, t.Members)
		if err != nil {
			return rebalance.Plan{}, err
		}
		x.staged[name] = newPl
		var moves []rebalance.TupleMove
		for slot, s := range h.primary {
			phys := t.Members[slot]
			for i := range s.Frag.NumTuples() {
				tid := s.Frag.Tuple(i).TID
				old := oldLoc[tid]
				if !old.held {
					return rebalance.Plan{}, fmt.Errorf("gamma: tuple %d of %s has no serving copy", tid, name)
				}
				if old.node == phys {
					continue // same-node re-layout: no cross-node I/O
				}
				moves = append(moves, rebalance.TupleMove{
					Src: old.node, Dst: phys,
					SrcPage: old.page, DstPage: s.Frag.DataPageOfSlot(i),
				})
			}
		}
		plan.Merge(rebalance.BuildPlan(moves))

		// Chain replicas copy the staged primary's data pages — the planner
		// appends these moves after the primaries, and the copier runs moves
		// in plan order, so the primary pages have landed first.
		var repl []rebalance.TupleMove
		for slot, s := range h.backup {
			b := core.ChainBackup(slot, nNew)
			if b < 0 {
				continue
			}
			primary := h.primary[slot].Frag
			for i := range s.Frag.NumTuples() {
				repl = append(repl, rebalance.TupleMove{
					Src: t.Members[slot], Dst: t.Members[b],
					SrcPage: primary.DataPageOfSlot(i), DstPage: s.Frag.DataPageOfSlot(i),
				})
			}
		}
		plan.Merge(rebalance.BuildPlan(repl))
		attach(m.Nodes, m.Heat, t.Gen, name, h, t.Members)
	}
	return plan, nil
}

// Cutover installs the staged generation: every node flips its placement
// maps, and the host repoints each relation at its new placement and
// adopts the new slot->node topology, so a subsequent Prepare plans from
// the new layout. The image keeps the built placement and storage for the
// next run.
func (x *elasticExec) Cutover(t rebalance.Transition) {
	m := x.m
	for _, n := range m.Nodes {
		n.CutoverPlacement(t.Gen)
	}
	for _, r := range m.img.rels {
		m.Host.SetPlacement(r.rel.Name, x.staged[r.rel.Name])
	}
	m.Host.SetTopology(append([]int(nil), t.Members...), t.Gen)
	x.topo = append([]int(nil), t.Members...)
	x.staged = nil
}

// registerRebalanceSeries adds migration telemetry to the sampler: the
// live copy backlog (gauge, pages), cumulative pages and bytes copied
// (windowed rates), and the copy error count. Probes read the copier's
// counters directly — sampling runs on the same sim clock as the copy
// process, so no synchronization is needed.
func registerRebalanceSeries(s *obs.Sampler, cp *rebalance.Copier) {
	s.Register("rebalance.backlog_pages", obs.SeriesGauge, func() float64 {
		return float64(cp.Backlog)
	})
	s.Register("rebalance.pages_copied", obs.SeriesRate, func() float64 {
		return float64(cp.PagesCopied)
	})
	s.Register("rebalance.bytes_copied", obs.SeriesRate, func() float64 {
		return float64(cp.BytesCopied)
	})
	s.Register("rebalance.copy_errors", obs.SeriesGauge, func() float64 {
		return float64(cp.Errors)
	})
}

// promoteCrashes adapts the fault injector's event stream into repair
// requests: a NodeCrash with no restart duration is a permanent failure,
// which the controller turns into an unplanned membership removal.
func promoteCrashes(ctl *rebalance.Controller) func(fault.Event) {
	return func(ev fault.Event) {
		if ev.Kind == fault.NodeCrash && ev.Dur == 0 {
			ctl.RequestRepair(ev.Node)
		}
	}
}
