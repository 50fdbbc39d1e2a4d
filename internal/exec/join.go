package exec

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/storage"
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
// the qualifying tuples through the split table.
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

// joinEnd signals that one scanner has finished a phase.
type joinEnd struct {
	QueryID  int64
	Phase    joinPhase
	ReplyTo  int
	Scanners int
}

// joinDone reports one join operator's matches to the scheduler.
type joinDone struct {
	QueryID int64
	Node    int
	Matches int
}

// joinWorker is the per-node join operator for one query: its reply
// address, the number of scanners feeding each phase, and a private
// mailbox through which the Operator Manager feeds it batches and
// end-of-stream markers.
type joinWorker struct {
	qid      int64
	replyTo  int
	scanners int
	inbox    *sim.Mailbox[any]
}

// routeJoinMsg delivers a join message to the query's worker, creating it
// and starting its operator on first contact.
func (n *Node) routeJoinMsg(qid int64, replyTo int, scanners int, msg any) {
	w := n.joins[qid]
	if w == nil {
		w = &joinWorker{qid: qid, replyTo: replyTo, scanners: scanners,
			inbox: sim.NewMailboxLabel[any](n.eng, sim.Labelf("node%d.join.q%d", int64(n.ID), qid))}
		n.joins[qid] = w
		n.spawnOperator(w)
	}
	w.inbox.Put(msg)
}

// runJoinScan scans the local fragment of one join input and routes each
// tuple through the split table (hash on the join attribute modulo the
// number of join operators), batching per destination. A final joinEnd goes
// to every join operator so it can detect end-of-stream. An access error
// becomes an opError report to the scheduler, and a crash silences the
// scan's remaining sends.
func (n *Node) runJoinScan(p *sim.Proc, req joinScan) {
	p.SetQID(req.QueryID)
	epoch := n.epoch
	hold, err := n.Resolve(req.Relation, Primary, req.Epoch)
	var acc storage.Access
	if err == nil {
		acc = hold.Frag.Scan(req.Pred.Attr, req.Pred.Lo, req.Pred.Hi)
		err = n.chargeAccess(p, acc, hold.Heat)
	}
	if err != nil {
		n.sendError(p, epoch, req.QueryID, req.ReplyTo, 0, err)
		return
	}
	hold.Heat.Account(len(acc.IndexPages), acc.NumDataPages(), 0, false)
	n.OpsExecuted++

	// Split table: partition the qualifying tuples' join keys, read in
	// place, by hash onto the physical node of the receiving operator's
	// slot.
	buckets := make(map[int][]int64)
	for i := 0; i < acc.N; i++ {
		key := acc.Tuple(i).Attrs[req.Attr]
		dst := n.ID
		if !req.Local {
			dst = physOf(req.Topo, core.JoinBucket(key, req.Slots))
		}
		buckets[dst] = append(buckets[dst], key)
		n.CPU.Execute(p, n.costs.JoinHashInstr)
	}
	dsts := make([]int, 0, len(buckets))
	for d := range buckets {
		dsts = append(dsts, d)
	}
	sort.Ints(dsts) // deterministic send order
	for _, dst := range dsts {
		keys := buckets[dst]
		n.TuplesShipped += int64(len(keys))
		batch := joinBatch{QueryID: req.QueryID, Phase: req.Phase,
			Keys: keys, ReplyTo: req.ReplyTo, Scanners: req.Slots}
		if dst == n.ID {
			// Local delivery: no network, straight to the worker.
			n.routeJoinMsg(req.QueryID, req.ReplyTo, req.Slots, batch)
			continue
		}
		n.send(p, epoch, hw.Message{
			From: n.ID, To: dst,
			Bytes:   n.params.TupleBytes(len(keys)) + controlBytes,
			Payload: batch,
		})
	}
	// End-of-stream to every join operator.
	for slot := 0; slot < req.Slots; slot++ {
		end := joinEnd{QueryID: req.QueryID, Phase: req.Phase,
			ReplyTo: req.ReplyTo, Scanners: req.Slots}
		dst := physOf(req.Topo, slot)
		if dst == n.ID {
			n.routeJoinMsg(req.QueryID, req.ReplyTo, req.Slots, end)
			continue
		}
		n.send(p, epoch, hw.Message{
			From: n.ID, To: dst, Bytes: controlBytes, Payload: end,
		})
	}
}

// runJoinOperator consumes build batches into a hash table, then probes it
// with the probe stream, and finally reports its match count to the
// scheduler. The table counts build tuples per key: a probe tuple matches
// every build tuple with its key, and only the count is reported. Probe
// batches arriving before the build phase has fully closed are buffered,
// preserving the build-before-probe barrier without global
// synchronization. Once it has reported, the worker retires.
func (n *Node) runJoinOperator(p *sim.Proc, w *joinWorker) {
	qid, scanners := w.qid, w.scanners
	p.SetQID(qid)
	epoch := n.epoch
	table := make(map[int64]int)
	var pendingProbe []joinBatch
	buildEnds, probeEnds := 0, 0
	matches := 0
	built := false

	probe := func(b joinBatch) {
		for _, key := range b.Keys {
			n.CPU.Execute(p, n.costs.JoinProbeInstr)
			matches += table[key]
		}
	}

	for buildEnds < scanners || probeEnds < scanners {
		switch m := w.inbox.Get(p).(type) {
		case joinBatch:
			if m.Phase == phaseBuild {
				for _, key := range m.Keys {
					n.CPU.Execute(p, n.costs.JoinBuildInstr)
					table[key]++
				}
			} else if built {
				probe(m)
			} else {
				pendingProbe = append(pendingProbe, m)
			}
		case joinEnd:
			if m.Phase == phaseBuild {
				buildEnds++
				if buildEnds == scanners {
					built = true
					for _, b := range pendingProbe {
						probe(b)
					}
					pendingProbe = nil
				}
			} else {
				probeEnds++
			}
		default:
			panic(fmt.Sprintf("exec: join operator got %T", m))
		}
	}
	n.OpsExecuted++
	// Ship the result (matched pairs) with the completion report.
	bytes := matches*2*n.params.TupleSize + controlBytes
	n.send(p, epoch, hw.Message{
		From: n.ID, To: w.replyTo, Bytes: bytes,
		Payload: joinDone{QueryID: qid, Node: n.ID, Matches: matches},
	})
	delete(n.joins, qid)
}
