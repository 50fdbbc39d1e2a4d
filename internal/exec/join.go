package exec

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sim"
)

// The parallel hash join is the Gamma substrate's signature dataflow (the
// paper's Operator Manager "models the relational operators"): the build
// relation is scanned in parallel on its home nodes and repartitioned by
// hashing the join attribute through a split table; the receiving join
// operators build in-memory hash tables; the probe relation streams through
// the same split table and probes. End-of-stream control messages close
// each phase, exactly as Gamma's split tables did.
//
// When both relations are hash-declustered on the join attribute with the
// same randomizing function (see Colocated), the split table degenerates
// to the identity and the join runs entirely node-locally — the
// join-locality benefit of declustering by join key.

// Colocated reports whether a join of build with probe on attr runs
// node-locally: both relations hash-declustered on attr over the same
// processors share the randomizing function, so every tuple's join partner
// already lives on its own node.
func Colocated(build, probe core.Placement, attr int) bool {
	hb, okB := build.(*core.HashPlacement)
	hp, okP := probe.(*core.HashPlacement)
	return okB && okP && hb.Attr() == attr && hp.Attr() == attr &&
		hb.Processors() == hp.Processors()
}

// join message types.
type joinPhase int

const (
	phaseBuild joinPhase = iota
	phaseProbe
)

// joinScan asks a node to scan its fragment of one join input and route
// the qualifying tuples through the split table. It travels by pointer, as
// startOp does.
type joinScan struct {
	QueryID  int64
	Relation string
	Attr     int
	Phase    joinPhase
	Pred     core.Predicate
	// Local, when true, short-circuits the split table: every tuple stays
	// on the scanning node (co-located join).
	Local bool
	// Slots is the number of placement slots: one scanner per slot feeds
	// each phase, and one join operator per slot receives. Topo and Epoch
	// are the query's captured routing generation: slot s's operator runs
	// on physOf(Topo, s), and the scan reads the Epoch generation's
	// fragment.
	Slots   int
	Topo    []int
	Epoch   int
	ReplyTo int
}

// joinBatch carries repartitioned tuples to a join operator. Only their
// join keys travel in the simulator's memory: the operator needs nothing
// else, and the message is still priced as the full tuples. ReplyTo and
// Scanners ride along so the receiving node can start the operator even
// when a remote batch outruns its own scan request.
type joinBatch struct {
	QueryID  int64
	Phase    joinPhase
	Keys     []int64
	ReplyTo  int
	Scanners int
}

// joinEnd signals that one scanner has finished a phase. An aborted end
// stands for the batches and the end of a scanner that failed: it has
// reported the failure to the scheduler, which fails the query, so the
// join operators retire without replying.
type joinEnd struct {
	QueryID  int64
	Phase    joinPhase
	ReplyTo  int
	Scanners int
	Aborted  bool
}

// joinDone reports one join operator's matches to the scheduler.
type joinDone struct {
	QueryID int64
	Node    int
	Matches int
}

// joinWorker is the per-node join operator's query: its reply address,
// the number of scanners feeding each phase, the mailbox through which the
// Operator Manager and the node's own scans feed it batches and
// end-of-stream markers, and the join's state. The table counts build
// tuples per key: a probe tuple matches every build tuple with its key,
// and only the count is reported. Probe batches that arrive before the
// build phase has fully closed wait in pending, preserving the
// build-before-probe barrier without global synchronization.
type joinWorker struct {
	qid      int64
	replyTo  int
	scanners int
	inbox    *sim.Mailbox[any]

	table                         map[int64]int
	pending                       []joinBatch
	buildEnds, probeEnds, matches int
	aborted                       bool      // a scanner failed, or the host gave up: no reply
	op                            *operator // the join operator, the inbox's consumer
}

// routeJoinMsg delivers a join message to the query's worker, creating it
// on first contact. Its operator is the mailbox's consumer, so that first
// Put starts it at this instant.
func (n *Node) routeJoinMsg(qid int64, replyTo int, scanners int, msg any) {
	w := n.joins[qid]
	if w == nil {
		if _, gone := n.abandoned[qid]; gone {
			return
		}
		w = &joinWorker{qid: qid, replyTo: replyTo, scanners: scanners, table: make(map[int64]int),
			inbox: sim.NewMailboxLabel[any](n.eng, sim.Labelf("node%d.join.q%d", int64(n.ID), qid))}
		if n.joins == nil {
			n.joins = make(map[int64]*joinWorker)
		}
		n.joins[qid] = w
		op := n.newOperator()
		op.join, w.op = w, op
		w.inbox.Consume(op)
	}
	w.inbox.Put(msg)
}

// abandonJoin retires the node's join operator of a query the host gave
// up on (it timed out or failed), whose scanners may never all end: an
// operator waiting for its next message ends at once, in the caller's
// event, and one in the middle of a step ends when it would take its next
// message, without replying. Later messages of the query are dropped.
func (n *Node) abandonJoin(qid int64) {
	w := n.joins[qid]
	if w == nil {
		return
	}
	if n.abandoned == nil {
		n.abandoned = make(map[int64]struct{})
	}
	n.abandoned[qid] = struct{}{}
	w.aborted = true
	w.buildEnds, w.probeEnds, w.pending = w.scanners, w.scanners, nil
	if w.inbox.Withdraw(w.op) {
		w.op.end()
	}
}

// done reports whether every scanner has ended both phases.
func (w *joinWorker) done() bool {
	return w.buildEnds >= w.scanners && w.probeEnds >= w.scanners
}

// take applies one message to the join and returns the CPU it costs, per
// key: a build batch enters the table, a probe batch probes it, or waits
// until the build phase closes, and the last build end probes the waiting
// batches.
func (w *joinWorker) take(msg any, costs Costs) (keys, instr int) {
	switch m := msg.(type) {
	case joinBatch:
		switch {
		case m.Phase == phaseBuild:
			for _, key := range m.Keys {
				w.table[key]++
			}
			return len(m.Keys), costs.JoinBuildInstr
		case w.buildEnds >= w.scanners:
			return w.probe(m.Keys), costs.JoinProbeInstr
		}
		w.pending = append(w.pending, m)
	case joinEnd:
		w.aborted = w.aborted || m.Aborted
		if m.Phase == phaseProbe {
			w.probeEnds++
			break
		}
		if w.buildEnds++; w.buildEnds == w.scanners {
			for _, b := range w.pending {
				keys += w.probe(b.Keys)
			}
			w.pending = nil
			return keys, costs.JoinProbeInstr
		}
	default:
		panic(fmt.Sprintf("exec: join operator got %T", m))
	}
	return 0, 0
}

// probe counts the matches of probe keys and returns how many there are.
func (w *joinWorker) probe(keys []int64) int {
	for _, key := range keys {
		w.matches += w.table[key]
	}
	return len(keys)
}

// split partitions a join scan's qualifying tuples by their join keys,
// read in place, through the split table: hash on the join attribute
// modulo the number of join operators, onto the physical node of the
// receiving operator's slot, or the scanning node when the join is local.
// It counts each node's keys, then scatters them, in scan order, into one
// new array cut into a list per node, which travels in that node's batch.
func (op *operator) split() {
	n, req := op.n, op.scan
	dstOf := func(i int) int {
		if req.Local {
			return n.ID
		}
		return physOf(req.Topo, core.JoinBucket(op.acc.Tuple(i).Attrs[req.Attr], req.Slots))
	}
	var small [64]int // the counts of up to 64 nodes, off the heap
	ends := small[:0]
	for i := 0; i < op.acc.N; i++ {
		dst := dstOf(i)
		for dst >= len(ends) {
			ends = append(ends, 0)
		}
		ends[dst]++
	}
	start := 0
	for dst, k := range ends {
		ends[dst] = start // the list's start until the scatter moves it on
		start += k
	}
	keys := make([]int64, op.acc.N)
	for i := 0; i < op.acc.N; i++ {
		dst := dstOf(i)
		keys[ends[dst]] = op.acc.Tuple(i).Attrs[req.Attr]
		ends[dst]++
	}
	start = 0
	for _, end := range ends {
		op.byProc = append(op.byProc, keys[start:end:end])
		start = end
	}
}

// route moves a join scan on to its next message: its split batches in
// node order, then an end-of-stream marker for every join operator, which
// is aborted when the scan failed (and split nothing). Those for the
// node's own join operator are delivered on the spot, with no network. It
// makes the next one to send msg, or reports false when none is left. A
// crash silences the scan's remaining sends.
func (op *operator) route() bool {
	n, req := op.n, op.scan
	for ; op.i < len(op.byProc)+req.Slots; op.i++ {
		var dst, bytes int
		var payload any
		if op.i < len(op.byProc) {
			keys := op.byProc[op.i]
			if len(keys) == 0 {
				continue
			}
			n.TuplesShipped += int64(len(keys))
			dst, bytes = op.i, n.params.TupleBytes(len(keys))+controlBytes
			payload = joinBatch{QueryID: req.QueryID, Phase: req.Phase,
				Keys: keys, ReplyTo: req.ReplyTo, Scanners: req.Slots}
		} else {
			dst, bytes = physOf(req.Topo, op.i-len(op.byProc)), controlBytes
			payload = joinEnd{QueryID: req.QueryID, Phase: req.Phase,
				ReplyTo: req.ReplyTo, Scanners: req.Slots, Aborted: op.failed != nil}
		}
		if dst == n.ID {
			n.routeJoinMsg(req.QueryID, req.ReplyTo, req.Slots, payload)
			continue
		}
		op.msg = hw.Message{From: n.ID, To: dst, Bytes: bytes, Payload: payload}
		op.i++
		return true
	}
	return false
}
