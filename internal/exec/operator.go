package exec

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/storage"
)

// operator is the record an operator runs from: the request that started
// it, or the join worker it serves. A selection's, an aggregate's and an
// aux lookup's operator is a handler that runs in steps (HandleEvent),
// with no coroutine; its request arrives by pointer, the Operator Manager
// unpacks it into its typed field once, when it starts the record, and
// every step reads it in place. The shared-scan, join-scan and join
// operators are processes whose body is the record (Run). Records come
// from the node's free list and return to it when the operator finishes,
// so starting a handler operator allocates nothing, starting a process
// allocates its sim.Proc, and no name is formatted until something reads
// one.
type operator struct {
	n    *Node
	sel  *startOp   // a selection's or an aggregate's request
	aux  *auxLookup // an aux lookup's request
	req  any        // a process operator's batchOp or joinScan, or a join operator's *joinWorker
	next *operator  // free-list link

	// A handler operator's state between the events it runs in.
	step    opStep
	agg     *aggregate // an aggregate's select: what it folds the tuples into
	qid     int64      // the query, which tags its requests
	waitErr error      // error slot of its waits (hw.Waiter)
	epoch   int        // the node's crash epoch when the operator started
	span    sim.Span
	fspan   sim.Span
	heat    *obs.FragHeat  // the fragment its page reads are attributed to
	acc     storage.Access // the pages to read, and a selection's qualifying tuples
	byProc  [][]int64      // an aux lookup's answer, by home processor
	entries int            // an aux lookup's qualifying entries
	i       int            // the next page to read, then the next tuple to aggregate
	instr   int            // the CPU cost of the page being read
	failed  error          // what the operator reports instead of an answer
	msg     hw.Message     // the reply or the error report
	read    buffer.PageRead
	send    hw.Send
}

// opStep is where a handler operator resumes.
type opStep uint8

const (
	opBegin    opStep = iota // resolve the holding and the pages to read
	opPage                   // start page i's read, or go on past the last page
	opRead                   // page i's read is waiting
	opCharge                 // page i is read: charge its CPU
	opTuples                 // an aggregate charges tuple i's CPU
	opTransmit               // start sending msg
	opSend                   // msg is being sent
	opEnd                    // close the spans and retire
)

// newOperator takes a record from the node's free list.
func (n *Node) newOperator() *operator {
	op := n.freeOps
	if op != nil {
		n.freeOps, op.next = op.next, nil
	} else {
		op = &operator{n: n}
	}
	return op
}

// spawnOperator starts an operator process for req: a batchOp, a joinScan
// or a join operator's *joinWorker.
func (n *Node) spawnOperator(req any) {
	op := n.newOperator()
	op.req = req
	n.eng.SpawnBody(op)
}

// retire clears the record and returns it to the free list.
func (op *operator) retire() {
	n := op.n
	*op = operator{n: n, next: n.freeOps}
	n.freeOps = op
}

// Run executes a process operator, then retires its record.
func (op *operator) Run(p *sim.Proc) {
	n := op.n
	switch req := op.req.(type) {
	case batchOp:
		n.runSharedBatch(p, req)
	case joinScan:
		n.runJoinScan(p, req)
	case *joinWorker:
		n.runJoinOperator(p, req)
	}
	op.retire()
}

// Name formats the operator's name, which its spans and a panic report.
func (op *operator) Name() string {
	id := op.n.ID
	switch {
	case op.sel != nil:
		if op.sel.Agg != nil {
			return fmt.Sprintf("node%d.agg.q%d", id, op.sel.QueryID)
		}
		return fmt.Sprintf("node%d.op.q%d", id, op.sel.QueryID)
	case op.aux != nil:
		return fmt.Sprintf("node%d.aux.q%d", id, op.aux.QueryID)
	}
	switch req := op.req.(type) {
	case batchOp:
		return fmt.Sprintf("node%d.sharedop", id)
	case joinScan:
		return fmt.Sprintf("node%d.joinscan.q%d", id, req.QueryID)
	default:
		return fmt.Sprintf("node%d.joinop.q%d", id, req.(*joinWorker).qid)
	}
}

// QID reports the query the operator works for (hw.Waiter).
func (op *operator) QID() int64 { return op.qid }

// ErrSlot is the operator's error slot (hw.Waiter).
func (op *operator) ErrSlot() *error { return &op.waitErr }

// HandleEvent runs a selection's, an aggregate's or an aux lookup's
// operator from the event that started it, or ended its last wait, to its
// next wait. The steps are those of the operator as one process, each run
// in the event where that process would have resumed: resolve the
// fragment and the pages; for each page, its buffer read, then its CPU;
// an aggregate's per-tuple CPU; then the reply, each packet its CPU and
// then its wire time. A selection ships its qualifying tuples, an
// aggregate's select a partial over them, and an aux lookup the home
// processors of its qualifying entries; the reply doubles as the
// completion signal, and a failure becomes an opError report. It
// implements sim.Handler and is not meant to be called directly.
func (op *operator) HandleEvent() {
	n := op.n
	for {
		switch op.step {
		case opBegin:
			op.begin()
		case opPage:
			pg, ok := op.pageAt(op.i)
			if !ok {
				op.pagesRead()
				continue
			}
			if !op.read.Start(n.Pool, op, pg, op.heat) {
				op.step = opRead
				return
			}
			op.step = opCharge
		case opRead:
			if !op.read.Step() {
				return
			}
			op.step = opCharge
		case opCharge:
			if err := op.read.Err(); err != nil {
				op.fail(err)
				continue
			}
			op.i++
			op.step = opPage
			if n.CPU.Charge(op, op.instr, hw.PrioNormal) {
				return
			}
		case opTuples:
			if op.i == op.acc.N {
				op.reply()
				continue
			}
			op.i++
			if n.CPU.Charge(op, n.costs.JoinProbeInstr, hw.PrioNormal) {
				return
			}
		case opTransmit:
			// A crash after the operator started, or a node that is down
			// now, fail-silences its reply.
			op.step = opEnd
			if !n.silenced(op.epoch) && !op.send.Start(n.net, op, n.CPU, op.msg) {
				op.step = opSend
				return
			}
		case opSend:
			if !op.send.Step() {
				return
			}
			op.step = opEnd
		case opEnd:
			op.end()
			return
		}
	}
}

// begin resolves the request's holding and the pages the operator reads.
func (op *operator) begin() {
	n := op.n
	op.epoch = n.epoch
	op.span = n.eng.StartSpan()
	op.step = opPage
	switch {
	case op.sel != nil:
		req := op.sel
		op.qid, op.agg = req.QueryID, req.Agg
		op.fspan = n.eng.StartSpan()
		hold, err := n.Resolve(req.Relation, req.Role, req.Epoch)
		if err == nil {
			op.acc, err = accessFor(hold.Frag, req.Access, req.Pred, req.TIDs)
		}
		if err != nil {
			op.fail(err)
			return
		}
		op.heat = hold.Heat
	case op.aux != nil:
		req := op.aux
		op.qid = req.QueryID
		hold, err := n.Resolve(req.Relation, req.Role, req.Epoch)
		var aux *storage.AuxFragment
		if err == nil {
			if aux = hold.Aux[req.Pred.Attr]; aux == nil {
				err = fmt.Errorf("exec: node %d has no %s aux relation for %q attr %d at epoch %d",
					n.ID, req.Role, req.Relation, req.Pred.Attr, req.Epoch)
			}
		}
		op.fspan = n.eng.StartSpan()
		if err != nil {
			op.fail(err)
			return
		}
		op.byProc, op.entries, op.acc.IndexPages = aux.Lookup(req.Pred.Lo, req.Pred.Hi)
		op.heat = hold.AuxHeat
	}
}

// pageAt returns the i-th page the operator reads, noting its CPU cost:
// index pages (all of an aux lookup's) cost IndexPageInstr each, a
// selection's data pages the Table 2 per-page processing.
func (op *operator) pageAt(i int) (page int, ok bool) {
	n := op.n
	if idx := op.acc.IndexPages; i < len(idx) {
		op.instr = n.costs.IndexPageInstr
		return idx[i], true
	}
	if j := i - len(op.acc.IndexPages); j < op.acc.NumDataPages() {
		op.instr = n.params.ReadPageInstr
		return op.acc.DataPage(j), true
	}
	return 0, false
}

// pagesRead completes the access: an aggregate goes on to its per-tuple
// CPU, anything else to its reply.
func (op *operator) pagesRead() {
	op.n.OpsExecuted++
	if op.agg != nil {
		op.i, op.step = 0, opTuples
		return
	}
	op.reply()
}

// reply accounts the answer and makes it the message to send.
func (op *operator) reply() {
	n := op.n
	op.step = opTransmit
	switch {
	case op.sel != nil:
		req, acc := op.sel, &op.acc
		bytes := controlBytes
		var value int64
		if req.Agg != nil {
			value = req.Agg.partial(acc)
		} else {
			n.TuplesShipped += int64(acc.N)
			bytes += n.params.TupleBytes(acc.N)
		}
		op.heat.Account(len(acc.IndexPages), acc.NumDataPages(), int64(bytes), req.Role == Backup)
		if op.fspan.Active() {
			op.fspan.End(n.ID, "frag", obs.FragID{Relation: req.Relation, Kind: req.Role.Kind()}.Label(),
				req.QueryID, fmt.Sprintf("%d pages, %d tuples", acc.PageCount(), acc.N))
		}
		op.msg = hw.Message{From: n.ID, To: req.ReplyTo, Bytes: bytes,
			Payload: opResult{QueryID: req.QueryID, Node: n.ID, Tuples: acc.N,
				Value: value, Attempt: req.Attempt}}
	case op.aux != nil:
		req := op.aux
		bytes := op.entries*auxEntryBytes + controlBytes
		pages := len(op.acc.IndexPages)
		op.heat.Account(pages, 0, int64(bytes), req.Role == Backup)
		if op.fspan.Active() {
			op.fspan.End(n.ID, "frag", obs.FragID{Relation: req.Relation, Kind: obs.FragAux}.Label(),
				req.QueryID, fmt.Sprintf("%d pages, %d tuples", pages, 0))
		}
		op.msg = hw.Message{From: n.ID, To: req.ReplyTo, Bytes: bytes,
			Payload: auxResult{QueryID: req.QueryID, Node: n.ID, TIDsByProc: op.byProc,
				Entries: op.entries, Attempt: req.Attempt}}
	}
}

// fail makes an error report to the scheduler the message to send,
// instead of an answer.
func (op *operator) fail(err error) {
	op.failed, op.step = err, opTransmit
	switch {
	case op.sel != nil:
		op.msg = op.n.errorReply(op.sel.QueryID, op.sel.ReplyTo, op.sel.Attempt, err)
	case op.aux != nil:
		op.msg = op.n.errorReply(op.aux.QueryID, op.aux.ReplyTo, op.aux.Attempt, err)
	}
}

// end closes the operator's span and retires its record.
func (op *operator) end() {
	n := op.n
	if op.span.Active() {
		name, detail := "", ""
		switch {
		case op.sel != nil:
			name, detail = "select "+op.sel.Access.String(), fmt.Sprintf("%d tuples", op.acc.N)
		case op.aux != nil:
			name, detail = "aux-lookup", fmt.Sprintf("%d entries", op.entries)
		}
		if op.failed != nil {
			name, detail = name+" failed", op.failed.Error()
		}
		op.span.End(n.ID, "op", name, op.qid, detail)
	}
	op.retire()
}
