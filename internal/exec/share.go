package exec

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/sim"
)

// Shared scans ("Multi Query Optimization in GLADE" is the reference
// design): the paper's workload is thousands of selections with
// overlapping predicates over the same declustered fragments, so at high
// multiprogramming levels the same pages are read over and over — and with
// Table 2's small buffer pools they rarely survive in memory between
// queries. The shared-scan manager batches concurrent selections whose
// scans hit the same fragment with the same access method inside a
// (sim-time) window, and runs each batch as one disk pass: the union of
// the members' page sets is read once, while every member is charged its
// own qualification CPU and ships its own tuples. Determinism is
// preserved because batches are keyed and flushed in simulated time
// (identical at any -parallel) and members are served in admission order.

// SharingStats tallies the shared-scan manager's work. Batches/BatchedOps/
// SharedOps are counted at flush time on the host; the page counters are
// summed over the operator nodes by the machine layer.
type SharingStats struct {
	// Batches is the number of flushed batches (a lone selection still
	// forms a batch of one).
	Batches int64 `json:"batches"`
	// BatchedOps is the number of operators that rode a batch.
	BatchedOps int64 `json:"batched_ops"`
	// SharedOps counts the operators beyond the first of their batch — the
	// ones that got their disk pass for free.
	SharedOps int64 `json:"shared_ops"`
	// PagesRequested is the number of page accesses the members' access
	// methods asked for; PagesRead is the distinct pages actually replayed
	// against the buffer pool. The difference is the sharing saving before
	// buffer-pool hits are even considered.
	PagesRequested int64 `json:"pages_requested"`
	PagesRead      int64 `json:"pages_read"`
}

// PagesSaved reports page reads avoided by deduplication within batches.
func (s SharingStats) PagesSaved() int64 { return s.PagesRequested - s.PagesRead }

// MeanBatchSize reports the average members per batch.
func (s SharingStats) MeanBatchSize() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.BatchedOps) / float64(s.Batches)
}

func (s SharingStats) String() string {
	return fmt.Sprintf("%d batches (%.2f ops/batch), %d shared ops, %d/%d pages deduped",
		s.Batches, s.MeanBatchSize(), s.SharedOps, s.PagesSaved(), s.PagesRequested)
}

// shareKey identifies one open batch: selections group when they target the
// same fragment (node, relation) with the same access method, the same
// replica role, and the same placement epoch — a backup-rerouted retry or
// a pre-cutover query must not share a disk pass with operators reading a
// different physical fragment. Predicates within a group may differ — the
// disk pass covers their union. role and epoch stay zero-valued on a
// fault-free, fixed-membership machine, so its grouping is by fragment and
// access method alone.
type shareKey struct {
	node     int
	relation string
	attr     int
	access   plan.Access
	role     Role
	epoch    int
}

// shareBatch is one open predicate group awaiting its window flush. It is
// also the record of the process that flushes it.
type shareBatch struct {
	s       *SharedScans
	key     shareKey
	members []batchMember
}

// Run holds the batch open for the window, then flushes it.
func (b *shareBatch) Run(p *sim.Proc) {
	p.Hold(b.s.window)
	b.s.flush(p, b)
}

// Name formats the flush process's name.
func (b *shareBatch) Name() string { return fmt.Sprintf("share.flush.n%d", b.key.node) }

// SharedScans is the host-side shared-scan manager. It is single-"threaded"
// by construction — the simulation engine serializes all process steps — so
// it needs no locking, and its batching decisions depend only on simulated
// time, keeping runs reproducible at any host parallelism.
type SharedScans struct {
	h      *Host
	window sim.Duration
	open   map[shareKey]*shareBatch
	stats  SharingStats
}

// EnableSharing arms the shared-scan manager with the given batching
// window: the first selection to open a batch waits at most window before
// the batch is dispatched. Sharing composes with degraded mode:
// dispatches carry their attempt tag into the batch, replies echo it, and
// the collectors drop stale batch replies exactly as for lone operators.
func (h *Host) EnableSharing(window sim.Duration) *SharedScans {
	if window <= 0 {
		panic(fmt.Sprintf("exec: non-positive sharing window %v", window))
	}
	h.Shared = &SharedScans{
		h: h, window: window,
		open: make(map[shareKey]*shareBatch),
	}
	return h.Shared
}

// Stats snapshots the flush counters (pages are accounted on the nodes).
func (s *SharedScans) Stats() SharingStats { return s.stats }

// ResetStats clears the flush counters (post warm-up).
func (s *SharedScans) ResetStats() { s.stats = SharingStats{} }

// enqueue adds one operator dispatch to its predicate group, opening the
// group — and scheduling its window flush — if it is the first. Admission
// order within a batch is the coordinators' arrival order, which the node
// preserves when replying, so per-query results are reproducible.
func (s *SharedScans) enqueue(node int, relation string, pred core.Predicate, access plan.Access,
	qid int64, attempt int, role Role, epoch int) {
	k := shareKey{node: node, relation: relation, attr: pred.Attr, access: access,
		role: role, epoch: epoch}
	b := s.open[k]
	if b == nil {
		b = &shareBatch{s: s, key: k}
		s.open[k] = b
		s.h.eng.SpawnBody(b)
	}
	b.members = append(b.members, batchMember{QID: qid, Pred: pred, Attempt: attempt})
}

// flush closes the batch and ships it to the node as one shared operator.
func (s *SharedScans) flush(fp *sim.Proc, b *shareBatch) {
	delete(s.open, b.key)
	s.stats.Batches++
	s.stats.BatchedOps += int64(len(b.members))
	s.stats.SharedOps += int64(len(b.members) - 1)
	s.h.net.Send(fp, nil, hw.Message{
		From: s.h.ID, To: b.key.node,
		Bytes: controlBytes + batchMemberBytes*len(b.members),
		Payload: batchOp{
			Relation: b.key.relation, Access: b.key.access,
			ReplyTo: s.h.ID, Members: b.members,
			Role: b.key.role, Epoch: b.key.epoch,
		},
	})
}
