package exec

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/storage"
)

// operator is the record one operator runs from. Every operator is a
// handler that runs in steps (HandleEvent), with no coroutine. Its request
// arrives by pointer, the Operator Manager sets its typed field once, when
// it starts the record, and every step reads it in place: a selection's or
// an aggregate's startOp, an aux lookup, a shared-scan batch (with its disk
// pass) or a join scan. A join operator runs from its query's joinWorker
// instead, whose mailbox feeds it. Records come from the node's free list
// and return to it when the operator finishes, and a selection's or an aux
// lookup's search fills lists its request record keeps, so starting and
// running an operator other than a batch or a join allocates nothing once
// the machine is warm, and no name is formatted until something reads one.
type operator struct {
	n     *Node
	sel   *startOp    // a selection's or an aggregate's request
	aux   *auxLookup  // an aux lookup's request
	batch *batchPass  // a shared-scan batch's request and disk pass
	scan  *joinScan   // a join scan's request
	join  *joinWorker // a join operator's query
	next  *operator   // free-list link

	// The operator's state between the events it runs in.
	step    opStep
	qid     int64 // the query, which tags its requests
	waitErr error // error slot of its waits (hw.Waiter)
	epoch   int   // the node's crash epoch when the operator started
	span    sim.Span
	fspan   sim.Span
	heat    *obs.FragHeat  // the fragment its page reads are attributed to
	acc     storage.Access // the pages to read (a batch's current member's), and the qualifying tuples
	byProc  [][]int64      // a join scan's split keys, by processor
	// i is the next page to read, then the tuples left to charge, then a
	// join scan's next message.
	i      int
	instr  int        // the CPU cost of the page being read, then of each tuple
	failed error      // what the operator reports instead of an answer
	msg    hw.Message // the reply or the error report
	read   buffer.PageRead
	send   hw.Send
}

// opStep is where a handler operator resumes.
type opStep uint8

const (
	opBegin    opStep = iota // resolve the request and the pages to read
	opPage                   // start page i's read, or go on past the last page
	opRead                   // page i's read is waiting
	opCharge                 // page i is read: charge its CPU
	opTuples                 // charge tuple i's CPU
	opTransmit               // start sending msg
	opSend                   // msg is being sent
	opTake                   // a join takes its next message, or waits for one
	opEnd                    // close the spans and retire
)

// newOperator takes a record from the node's free list, or a spare or
// new one.
func (n *Node) newOperator() *operator {
	op := n.freeOps
	if op != nil {
		n.freeOps, op.next = op.next, nil
		return op
	}
	op = spareOps.take()
	op.n = n
	n.ops = append(n.ops, op)
	return op
}

// retire clears the record, keeping the storage of its split lists, and
// returns it to the free list.
func (op *operator) retire() {
	n := op.n
	*op = operator{n: n, next: n.freeOps, byProc: op.byProc[:0]}
	n.freeOps = op
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
	case op.batch != nil:
		return fmt.Sprintf("node%d.sharedop", id)
	case op.scan != nil:
		return fmt.Sprintf("node%d.joinscan.q%d", id, op.scan.QueryID)
	}
	return fmt.Sprintf("node%d.joinop.q%d", id, op.join.qid)
}

// QID reports the query the operator works for (hw.Waiter).
func (op *operator) QID() int64 { return op.qid }

// ErrSlot is the operator's error slot (hw.Waiter).
func (op *operator) ErrSlot() *error { return &op.waitErr }

// HandleEvent runs the operator from the event that started it, or ended
// its last wait, to its next wait. The steps are those of the operator as
// one process, each run in the event where that process would have
// resumed: resolve the request; for each page, its buffer read, then its
// CPU; per-tuple CPU; then each reply, each packet its CPU and then its
// wire time. A selection ships its qualifying tuples, an aggregate's
// select a partial over them, an aux lookup the home processors of its
// qualifying entries, and a shared-scan batch one reply per member, in
// admission order, after one disk pass over the union of their pages. A
// join scan splits its tuples over the join operators, and a join operator
// builds and probes from its mailbox and then reports its matches. A reply
// doubles as the completion signal, and a failure becomes an opError
// report. It implements sim.Handler and is not meant to be called
// directly.
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
			op.step = opCharge
			if op.batch != nil && !op.firstRead(pg) {
				// An earlier member read the page: only its CPU is
				// charged, and the read record keeps that read's nil
				// error.
				continue
			}
			if !op.read.Start(n.Pool, op, pg, op.heat) {
				op.step = opRead
				return
			}
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
			if op.i == 0 {
				if op.join != nil {
					op.step = opTake // the join's next message
				} else {
					op.reply()
				}
				continue
			}
			op.i--
			if n.CPU.Charge(op, op.instr, hw.PrioNormal) {
				return
			}
		case opTransmit:
			// A crash after the operator started, or a node that is down
			// now, fail-silences its reply. A reply in its request record
			// holds the record while it travels.
			if !n.silenced(op.epoch) {
				if r, ok := op.msg.Payload.(pooled); ok {
					r.hold()
				}
				if !op.send.Start(n.net, op, n.CPU, op.msg) {
					op.step = opSend
					return
				}
			}
			op.sent()
		case opSend:
			if !op.send.Step() {
				return
			}
			op.sent()
		case opTake:
			w := op.join
			if w.done() {
				op.reply()
				continue
			}
			m, ok := w.inbox.Take()
			if !ok {
				return // the next Put runs the operator again
			}
			op.step = opTuples
			op.i, op.instr = w.take(m, n.costs)
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
	op.step = opPage
	switch {
	case op.sel != nil:
		req := op.sel
		op.qid = req.QueryID
		op.span = n.eng.StartSpan()
		op.fspan = n.eng.StartSpan()
		hold, err := n.Resolve(req.Relation, req.Role, req.Epoch)
		if err == nil {
			op.acc, err = accessFor(hold.Frag, req.Access, req.Pred, req.TIDs, &req.bufs)
		}
		if err != nil {
			op.fail(err)
			return
		}
		op.heat = hold.Heat
	case op.aux != nil:
		req := op.aux
		op.qid = req.QueryID
		op.span = n.eng.StartSpan()
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
		req.byProc, req.entries, op.acc.IndexPages = aux.Lookup(req.Pred.Lo, req.Pred.Hi, &req.bufs)
		op.heat = hold.AuxHeat
	case op.batch != nil:
		op.span = n.eng.StartSpan()
		op.resolveBatch()
	case op.scan != nil:
		req := op.scan
		op.qid = req.QueryID
		hold, err := n.Resolve(req.Relation, Primary, req.Epoch)
		if err != nil {
			op.fail(err)
			return
		}
		op.acc = hold.Frag.Scan(req.Pred.Attr, req.Pred.Lo, req.Pred.Hi, nil)
		op.heat = hold.Heat
	default:
		op.qid, op.step = op.join.qid, opTake
	}
}

// pageAt returns the i-th page the operator reads, noting its CPU cost:
// index pages (all of an aux lookup's) cost IndexPageInstr each, data
// pages the Table 2 per-page processing.
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

// pagesRead completes the access: a batch goes on to its next member's
// pages, or to its replies after the last; an aggregate and a join scan
// go on to their per-tuple CPU, anything else to its reply.
func (op *operator) pagesRead() {
	n := op.n
	switch {
	case op.batch != nil:
		b := op.batch
		if b.m++; b.m < len(b.accs) {
			op.acc, op.i = b.accs[b.m], 0
			return
		}
		b.m = 0
		op.answer()
		return
	case op.scan != nil:
		op.heat.Account(len(op.acc.IndexPages), op.acc.NumDataPages(), 0, false)
		n.OpsExecuted++
		op.split()
		op.chargeTuples(op.acc.N, n.costs.JoinHashInstr)
		return
	}
	n.OpsExecuted++
	if op.sel != nil && op.sel.Agg != nil {
		op.chargeTuples(op.acc.N, n.costs.JoinProbeInstr)
		return
	}
	op.reply()
}

// chargeTuples goes on to charge instr for each of k tuples.
func (op *operator) chargeTuples(k, instr int) {
	op.i, op.instr, op.step = k, instr, opTuples
}

// reply accounts the answer and makes it the message to send: a
// selection's or an aux lookup's request record, with the answer written
// in. A join scan sends its split batches and end-of-stream markers
// instead.
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
		req.Node, req.Tuples, req.Value = n.ID, acc.N, value
		op.msg = hw.Message{From: n.ID, To: req.ReplyTo, Bytes: bytes, Payload: req}
	case op.aux != nil:
		req := op.aux
		bytes := req.entries*auxEntryBytes + controlBytes
		pages := len(op.acc.IndexPages)
		op.heat.Account(pages, 0, int64(bytes), req.Role == Backup)
		if op.fspan.Active() {
			op.fspan.End(n.ID, "frag", obs.FragID{Relation: req.Relation, Kind: obs.FragAux}.Label(),
				req.QueryID, fmt.Sprintf("%d pages, %d tuples", pages, 0))
		}
		req.Node = n.ID
		op.msg = hw.Message{From: n.ID, To: req.ReplyTo, Bytes: bytes, Payload: req}
	case op.scan != nil:
		if !op.route() {
			op.step = opEnd
		}
	default:
		w := op.join
		if w.aborted {
			op.step = opEnd
			return
		}
		n.OpsExecuted++
		// Ship the result (matched pairs) with the completion report.
		op.msg = hw.Message{From: n.ID, To: w.replyTo, Bytes: w.matches*2*n.params.TupleSize + controlBytes,
			Payload: joinDone{QueryID: w.qid, Node: n.ID, Matches: w.matches}}
	}
}

// sent goes on once a message is sent, or silenced: a batch answers its
// next member, a join scan sends its next message (after its error
// report, its aborted end markers), and anything else ends.
func (op *operator) sent() {
	op.step = opEnd
	switch {
	case op.batch != nil:
		b := op.batch
		if b.m++; b.m < len(b.req.Members) {
			op.answer()
		}
	case op.scan != nil:
		if op.route() {
			op.step = opTransmit
		}
	}
}

// fail makes an error report to the scheduler the message to send,
// instead of an answer; a batch reports to each member.
func (op *operator) fail(err error) {
	n := op.n
	op.failed, op.step = err, opTransmit
	switch {
	case op.sel != nil:
		op.msg = n.errorReply(op.sel.QueryID, op.sel.ReplyTo, op.sel.Attempt, err)
	case op.aux != nil:
		op.msg = n.errorReply(op.aux.QueryID, op.aux.ReplyTo, op.aux.Attempt, err)
	case op.batch != nil:
		op.batch.m = 0
		op.answer()
	case op.scan != nil:
		op.msg = n.errorReply(op.scan.QueryID, op.scan.ReplyTo, 0, err)
		op.i = 0 // route's first end marker
	}
}

// end closes the operator's span, releases its request record and
// retires its own. A batch accounts its disk pass to the fragment's heat,
// and a join leaves the node's live joins.
func (op *operator) end() {
	n := op.n
	switch {
	case op.batch != nil && op.failed == nil:
		b := op.batch
		op.heat.Account(b.idxRead, b.dataRead, b.bytes, b.req.Role == Backup)
	case op.join != nil:
		delete(n.joins, op.join.qid)
	}
	if op.span.Active() {
		name, detail := "", ""
		switch {
		case op.sel != nil:
			name, detail = "select "+op.sel.Access.String(), fmt.Sprintf("%d tuples", op.acc.N)
		case op.aux != nil:
			name, detail = "aux-lookup", fmt.Sprintf("%d entries", op.aux.entries)
		case op.batch != nil:
			b := op.batch
			name = "shared select " + b.req.Access.String()
			detail = fmt.Sprintf("%d members, %d pages", len(b.req.Members), b.idxRead+b.dataRead)
		}
		if op.failed != nil {
			name, detail = name+" failed", op.failed.Error()
		}
		op.span.End(n.ID, "op", name, op.qid, detail)
	}
	switch {
	case op.sel != nil:
		op.sel.release()
	case op.aux != nil:
		op.aux.release()
	}
	op.retire()
}
