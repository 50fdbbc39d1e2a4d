package exec

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
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
// also the handler that flushes it: started when the group opens, it holds
// the group open for the window, then closes it and sends it to the node.
type shareBatch struct {
	s       *SharedScans
	key     shareKey
	members []batchMember
	step    shareStep
	err     error // error slot of the send (hw.Waiter)
	send    hw.Send
}

// shareStep is where a batch's flush resumes.
type shareStep uint8

const (
	shareOpen  shareStep = iota // start the window
	shareFlush                  // the window is over: close the group and send it
	shareSend                   // the batch is being sent
)

// HandleEvent runs the flush's next step. It implements sim.Handler and is
// not meant to be called directly.
func (b *shareBatch) HandleEvent() {
	switch b.step {
	case shareOpen:
		b.step = shareFlush
		b.s.h.eng.ScheduleHandler(b.s.window, b)
	case shareFlush:
		b.step = shareSend
		b.s.flush(b)
	case shareSend:
		b.send.Step()
	}
}

// Name formats the flush's name, which its send's spans carry.
func (b *shareBatch) Name() string { return fmt.Sprintf("share.flush.n%d", b.key.node) }

// QID reports the query the flush works for: none (hw.Waiter).
func (b *shareBatch) QID() int64 { return 0 }

// ErrSlot is the flush's error slot (hw.Waiter).
func (b *shareBatch) ErrSlot() *error { return &b.err }

// SharedScans is the host-side shared-scan manager. It is single-"threaded"
// by construction — the simulation engine runs one event at a time — so it
// needs no locking, and its batching decisions depend only on simulated
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
		s.h.eng.ScheduleHandler(0, b)
	}
	b.members = append(b.members, batchMember{QID: qid, Pred: pred, Attempt: attempt})
}

// flush closes the batch and starts shipping it to the node as one shared
// operator. The host has no CPU, so the send always waits.
func (s *SharedScans) flush(b *shareBatch) {
	delete(s.open, b.key)
	s.stats.Batches++
	s.stats.BatchedOps += int64(len(b.members))
	s.stats.SharedOps += int64(len(b.members) - 1)
	b.send.Start(s.h.net, b, nil, hw.Message{
		From: s.h.ID, To: b.key.node,
		Bytes: controlBytes + batchMemberBytes*len(b.members),
		Payload: &batchOp{
			Relation: b.key.relation, Access: b.key.access,
			ReplyTo: s.h.ID, Members: b.members,
			Role: b.key.role, Epoch: b.key.epoch,
		},
	})
}

// batchPass is a batch operator's request and its disk pass: each
// member's access, the pages read so far and their counts by kind, the
// member whose pages are read, then the member answered next, and the
// reply bytes so far.
type batchPass struct {
	req               *batchOp
	accs              []storage.Access
	seen              map[int]bool
	idxRead, dataRead int
	m                 int
	bytes             int64
}

// resolveBatch resolves a batch operator's holding and every member's
// access: the union of their pages is what its disk pass reads.
func (op *operator) resolveBatch() {
	n, b := op.n, op.batch
	req := b.req
	hold, err := n.Resolve(req.Relation, req.Role, req.Epoch)
	if err == nil {
		b.accs = make([]storage.Access, len(req.Members))
		for i, m := range req.Members {
			if b.accs[i], err = accessFor(hold.Frag, req.Access, m.Pred, nil, nil); err != nil {
				break
			}
		}
	}
	if err != nil {
		op.fail(err)
		return
	}
	op.heat, b.seen, op.acc = hold.Heat, make(map[int]bool), b.accs[0]
}

// firstRead counts a batch operator's request for page pg, its current
// member's page i, and reports whether the disk pass reads it: only the
// batch's first request for a page does.
func (op *operator) firstRead(pg int) bool {
	n, b := op.n, op.batch
	n.SharedPagesRequested++
	if b.seen[pg] {
		return false
	}
	b.seen[pg] = true
	if op.i < len(op.acc.IndexPages) {
		b.idxRead++
	} else {
		b.dataRead++
	}
	n.SharedPagesRead++
	return true
}

// answer makes the reply to a batch operator's member m the message to
// send: its qualifying tuples, or the batch's error.
func (op *operator) answer() {
	n, b := op.n, op.batch
	req, m := b.req, b.req.Members[b.m]
	op.step = opTransmit
	if op.failed != nil {
		op.msg = n.errorReply(m.QID, req.ReplyTo, m.Attempt, op.failed)
		return
	}
	tuples := b.accs[b.m].N
	n.OpsExecuted++
	n.TuplesShipped += int64(tuples)
	bytes := n.params.TupleBytes(tuples) + controlBytes
	b.bytes += int64(bytes)
	op.msg = hw.Message{From: n.ID, To: req.ReplyTo, Bytes: bytes,
		Payload: opResult{QueryID: m.QID, Node: n.ID, Tuples: tuples, Attempt: m.Attempt}}
}
