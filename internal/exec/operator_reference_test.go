package exec

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/storage"
)

// The Operator Manager's operators (selection, aggregate, aux lookup,
// shared-scan batch, join scan and join) are checked against their first
// form, kept here as the reference: one process per operator, blocking in
// the buffer pool, the CPU, the network and the join operator's mailbox,
// over a map-and-list buffer pool whose piggybacked readers are processes
// too. Each script
// runs twice on identical two-node machines, once with the node's own
// Operator Manager and once with processes running the reference, and the
// two runs must log the same steps: every delivered reply and every
// scripted action with the clock and the events dispatched so far, every
// trace event (facility, disk, operator and fragment spans with their
// query tags) when the script traces, and the final counters.

// refHost is the machine's reply endpoint: node opRigNodes, a coordinator
// with no CPU.
const opRigNodes = 2
const refHost = opRigNodes

// Script actions, by a byte's low nibble.
const (
	actClustered    = iota // a select by clustered index on unique2
	actNonClustered        // a select by non-clustered index on unique1
	actSeqScan             // a select by sequential scan
	actTIDFetch            // a select by TIDs (BERD's second step)
	actAggregate           // an aggregate's select
	actAux                 // a BERD aux lookup on unique2
	actBurst               // three identical clustered selects at once
	actFailNext            // FailNextReads on the node's disk
	actDiskFail            // Disk.Fail, then Repair after a delay
	actCrash               // node Crash, then Restart after a delay
	actShared              // a shared-scan batch of two or three selections
	actJoin                // a join scanning both nodes, feeding both join operators
)

var opActKinds = [16]int{
	actClustered, actClustered, actNonClustered, actSeqScan,
	actTIDFetch, actAggregate, actAggregate, actAux,
	actAux, actShared, actBurst, actShared,
	actFailNext, actDiskFail, actCrash, actJoin,
}

type opAction struct {
	kind, node int
	at         sim.Duration
	lo, width  int64
	arg        int
}

// opScript is one run: the pool's frames, whether a trace sink logs
// every span, and the actions, each scheduled at its instant up front.
type opScript struct {
	frames  int
	trace   bool
	actions []opAction
}

// decodeOpScript turns arbitrary bytes into a script: the first byte
// gives the frames (0–4) and tracing, and each later group of four bytes
// one action: its kind and node, its instant in 250µs steps, and two
// arguments (a predicate's low end and width, an aggregate function, a
// role, a fault's count or delay).
func decodeOpScript(data []byte) opScript {
	if len(data) == 0 {
		data = []byte{0}
	}
	s := opScript{frames: int(data[0]&0x7f) % 5, trace: data[0]&0x80 != 0}
	for rest := data[1:]; len(rest) > 0; rest = rest[min(4, len(rest)):] {
		var b [4]byte
		copy(b[:], rest)
		s.actions = append(s.actions, opAction{
			kind:  opActKinds[b[0]&15],
			node:  int(b[0]>>4) % opRigNodes,
			at:    sim.Duration(b[1]) * 250 * sim.Microsecond,
			lo:    int64(b[2]) * 200 / 256,
			width: 1 + 2*int64(b[3]&0x3f),
			arg:   int(b[3] >> 6),
		})
	}
	return s
}

// opRig is one run of a script: a two-node machine with the reply
// endpoint, and the step log.
type opRig struct {
	eng   *sim.Engine
	net   *hw.Network
	rel   *storage.Relation
	place core.Placement
	nodes []*Node
	refs  []*refPool // the reference run's pools; nil in the operator run
	log   []string
	qid   int64

	// Coverage: piggybacked reads, reply fragments, a batch member's error
	// reports, completed join operators.
	piggybacks, packets, batchErrs, joins int
	members                               map[int64]bool // the batch members' queries
}

func (r *opRig) logf(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf("%d %d ", r.eng.Now(), r.eng.Stats().Events)+fmt.Sprintf(format, args...))
}

// newOpRig builds the machine: a 200-tuple relation range-declustered on
// unique1, clustered on unique2 with indexes on both, and a BERD aux
// relation on unique2, range-partitioned over the nodes. The reference run
// installs the reference operators as each node's inbox consumer.
func newOpRig(s opScript, reference bool) *opRig {
	eng := sim.New()
	params := hw.DefaultParams()
	streams := rng.NewFactory(11)
	cpus := make([]*hw.CPU, opRigNodes+1)
	for i := 0; i < opRigNodes; i++ {
		cpus[i] = hw.NewCPU(eng, fmt.Sprintf("cpu%d", i), params)
		cpus[i].SetNode(i)
	}
	net := hw.NewNetwork(eng, params, cpus)
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	place := core.NewRangeForRelation(rel, storage.Unique1, opRigNodes)
	r := &opRig{eng: eng, net: net, rel: rel, place: place, members: make(map[int64]bool)}
	if s.trace {
		eng.SetSink(obs.SinkFunc(func(ev obs.TraceEvent) {
			r.logf("trace t=%d dur=%d node=%d %v %s %q q%d %q",
				ev.T, ev.Dur, ev.Node, ev.Kind, ev.Category, ev.Name, ev.QueryID, ev.Detail)
		}))
	}
	layout := storage.Layout{TuplesPerPage: 8, IndexFanout: 8, IndexLeafCap: 8}
	auxEntries := make([][]storage.AuxEntry, opRigNodes)
	for _, tup := range rel.Tuples {
		v := tup.Attrs[storage.Unique2]
		k := int(v) * opRigNodes / len(rel.Tuples)
		auxEntries[k] = append(auxEntries[k], storage.AuxEntry{Value: v, TID: tup.TID, Proc: place.HomeOf(&tup)})
	}
	for i := 0; i < opRigNodes; i++ {
		disk := hw.NewDisk(eng, fmt.Sprintf("disk%d", i), params, cpus[i], streams.Stream("lat"))
		disk.SetNode(i)
		pool := buffer.NewPool(eng, s.frames, disk)
		n := NewNode(eng, i, params, DefaultCosts(), net, cpus[i], disk, pool)
		var rows []int32
		for row, tup := range rel.Tuples {
			if place.HomeOf(&tup) == i {
				rows = append(rows, int32(row))
			}
		}
		alloc := storage.NewAllocator(10000)
		frag := indexedFragment(i, rel.Tuples, rows, layout, alloc)
		aux := storage.BuildAux(i, auxEntries[i], layout, alloc)
		n.Attach(0, rel.Name, Primary, Holding{Frag: frag, Aux: map[int]*storage.AuxFragment{storage.Unique2: aux}})
		if reference {
			ref := newRefPool(eng, s.frames, disk, r)
			r.refs = append(r.refs, ref)
			net.Inbox(i).Consume(&refManager{n: n, pool: ref})
		} else {
			n.Start()
		}
		r.nodes = append(r.nodes, n)
	}
	net.Inbox(refHost).Consume((*replyLog)(r))
	return r
}

// replyLog logs every message delivered to the reply endpoint.
type replyLog opRig

func (c *replyLog) HandleEvent() {
	r := (*opRig)(c)
	inbox := r.net.Inbox(refHost)
	for m, ok := inbox.Take(); ok; m, ok = inbox.Take() {
		switch p := m.Payload.(type) {
		case nil:
			r.packets++
		case opError:
			if r.members[p.QueryID] {
				r.batchErrs++
			}
		case joinDone:
			r.joins++
		}
		reply := replyForm(m.Payload)
		r.logf("reply %d->%d %dB %T%+v", m.From, m.To, m.Bytes, reply, reply)
	}
}

// selResult and auxResult are the replies the reference operators send: a
// selection's and an aux lookup's answer, which the operators send back in
// their request records instead.
type selResult struct {
	QueryID int64
	Node    int
	Tuples  int
	Value   int64
	Attempt int
}

type auxResult struct {
	QueryID    int64
	Node       int
	TIDsByProc [][]int64
	Entries    int
	Attempt    int
}

// attemptTagged is a reply that echoes its dispatch attempt.
type attemptTagged interface{ attemptID() int }

func (r selResult) attemptID() int { return r.Attempt }
func (r auxResult) attemptID() int { return r.Attempt }
func (r opResult) attemptID() int  { return r.Attempt }

// replyForm returns a reply in the reference operators' form: a request
// record that came back with its operator's answer becomes the selResult
// or auxResult that answer stands for, and any other payload is itself.
func replyForm(payload any) any {
	switch r := payload.(type) {
	case *startOp:
		return selResult{QueryID: r.QueryID, Node: r.Node, Tuples: r.Tuples, Value: r.Value, Attempt: r.Attempt}
	case *auxLookup:
		return auxResult{QueryID: r.QueryID, Node: r.Node, TIDsByProc: r.byProc, Entries: r.entries, Attempt: r.Attempt}
	}
	return payload
}

// deliver puts req in the node's inbox, where the Operator Manager (or
// the reference consumer) picks it up.
func (r *opRig) deliver(node int, req any) {
	r.net.Inbox(node).Put(hw.Message{From: refHost, To: node, Bytes: controlBytes, Payload: req})
}

// schedule enters every action into the engine at its instant.
func (r *opRig) schedule(s opScript) {
	for i, a := range s.actions {
		i, a := i, a
		r.eng.Schedule(a.at, func() { r.act(i, a) })
	}
}

// act runs one action.
func (r *opRig) act(i int, a opAction) {
	n := r.nodes[a.node]
	pred := core.Predicate{Attr: storage.Unique2, Lo: a.lo, Hi: a.lo + a.width - 1}
	role := Primary
	if a.arg == 3 && a.lo%4 == 0 {
		role = Backup // no backup is attached: the operator reports an error
	}
	r.logf("act %d kind=%d node=%d pred=%v role=%v arg=%d", i, a.kind, a.node, pred, role, a.arg)
	sel := func(access plan.Access, pred core.Predicate) *startOp {
		r.qid++
		return &startOp{QueryID: r.qid, Relation: r.rel.Name, Pred: pred, Access: access,
			ReplyTo: refHost, Attempt: a.arg, Role: role}
	}
	switch a.kind {
	case actClustered:
		r.deliver(a.node, sel(plan.AccessClustered, pred))
	case actNonClustered:
		pred.Attr = storage.Unique1
		r.deliver(a.node, sel(plan.AccessNonClustered, pred))
	case actSeqScan:
		r.deliver(a.node, sel(plan.AccessSeqScan, pred))
	case actTIDFetch:
		op := sel(plan.AccessTIDFetch, pred)
		for tid := a.lo; tid < a.lo+a.width && tid < int64(len(r.rel.Tuples)); tid++ {
			home := r.place.HomeOf(&r.rel.Tuples[tid])
			if home == a.node || a.arg == 2 && tid%7 == 0 {
				op.TIDs = append(op.TIDs, tid) // a foreign TID fails the fetch
			}
		}
		r.deliver(a.node, op)
	case actAggregate:
		op := sel(plan.AccessClustered, pred)
		op.Agg = &aggregate{fn: plan.AggFn(a.arg), attr: storage.Unique1}
		r.deliver(a.node, op)
	case actAux:
		r.qid++
		r.deliver(a.node, &auxLookup{QueryID: r.qid, Relation: r.rel.Name, Pred: pred,
			ReplyTo: refHost, Attempt: a.arg, Role: role})
	case actBurst:
		op := sel(plan.AccessClustered, pred)
		for k := 0; k < 3; k++ {
			r.deliver(a.node, op)
		}
	case actShared:
		// Members only share within one attribute and access method: a
		// clustered or sequential pass over unique2, or a non-clustered
		// one over unique1. A batch for the backup fails to resolve.
		access := []plan.Access{plan.AccessClustered, plan.AccessNonClustered, plan.AccessSeqScan}[a.lo%3]
		if access == plan.AccessNonClustered {
			pred.Attr = storage.Unique1
		}
		batch := &batchOp{Relation: r.rel.Name, Access: access, ReplyTo: refHost}
		if a.arg == 3 {
			batch.Role = Backup
		}
		for k := int64(0); k < 2+int64(a.arg&1); k++ {
			r.qid++
			r.members[r.qid] = true
			lo := pred.Lo + k*a.width/2
			batch.Members = append(batch.Members, batchMember{QID: r.qid,
				Pred: core.Predicate{Attr: pred.Attr, Lo: lo, Hi: lo + a.width - 1}, Attempt: a.arg})
		}
		r.deliver(a.node, batch)
	case actJoin:
		// Each node scans its fragment for the build input, then for the
		// probe input, and splits both on unique1 over the two join
		// operators, or keeps them local.
		r.qid++
		probe := core.Predicate{Attr: pred.Attr, Lo: pred.Lo + a.width/2, Hi: pred.Hi + a.width/2}
		for phase, p := range []core.Predicate{pred, probe} {
			for node := range r.nodes {
				r.deliver(node, &joinScan{QueryID: r.qid, Relation: r.rel.Name, Attr: storage.Unique1,
					Phase: joinPhase(phase), Pred: p, Local: a.arg == 1, Slots: opRigNodes, ReplyTo: refHost})
			}
		}
	case actFailNext:
		n.Disk.FailNextReads(1 + a.arg)
	case actDiskFail:
		n.Disk.Fail()
		r.eng.Schedule(sim.Duration(a.width)*250*sim.Microsecond, func() {
			r.logf("repair disk%d", a.node)
			n.Disk.Repair()
		})
	case actCrash:
		n.Crash()
		r.eng.Schedule(sim.Duration(a.width)*500*sim.Microsecond, func() {
			r.logf("restart node%d", a.node)
			n.Restart()
		})
	}
}

// runOpScript runs s with the node's operators, or with the reference
// processes, and returns the step log ending with the final counters.
func runOpScript(t testing.TB, s opScript, reference bool) *opRig {
	r := newOpRig(s, reference)
	defer simtest.Close(r.eng)
	r.schedule(s)
	if err := r.eng.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, n := range r.nodes {
		hits, misses := n.Pool.Hits(), n.Pool.Misses()
		if reference {
			hits, misses = r.refs[i].hits, r.refs[i].misses
		}
		r.logf("node%d ops=%d shipped=%d errors=%d reads=%d hits=%d misses=%d",
			i, n.OpsExecuted, n.TuplesShipped, n.OpErrors, n.Disk.Reads(), hits, misses)
	}
	r.log = append(r.log, fmt.Sprintf("events=%d", r.eng.Stats().Events))
	// A failed read or disk fails a join's scan, whose aborted end markers
	// retire every join operator of the query; only a crash, which
	// silences a scan, may leave one waiting.
	crashed := slices.ContainsFunc(s.actions, func(a opAction) bool { return a.kind == actCrash })
	for i, n := range r.nodes {
		if len(n.joins) > 0 && !crashed {
			t.Fatalf("node%d still holds %d join operators after the run (reference %t)", i, len(n.joins), reference)
		}
	}
	return r
}

// compareOpScript runs s both ways and reports the first step where the
// logs part.
func compareOpScript(t testing.TB, s opScript) (ref *opRig) {
	t.Helper()
	got := runOpScript(t, s, false).log
	ref = runOpScript(t, s, true)
	want := ref.log
	for i := range max(len(got), len(want)) {
		if g, w := logLine(got, i), logLine(want, i); g != w {
			t.Fatalf("operators part from the process reference at step %d of %d\n got: %s\nwant: %s",
				i, len(want), g, w)
		}
	}
	return ref
}

// logLine returns line i of log, or a marker past its end.
func logLine(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "<end of log>"
}

// TestOperatorsMatchProcessReference runs 1200 seeded scripts both ways
// and checks that they exercise what the operators must get right:
// piggybacked reads, multi-packet replies, failed reads, a batch's error
// fan-out, completed joins, crash-suppressed replies and traced runs.
func TestOperatorsMatchProcessReference(t *testing.T) {
	src := rng.NewFactory(36).Stream("operator-scripts")
	var piggybacks, packets, errs, batchErrs, joins, suppressed, traced int
	for n := 0; n < 1200; n++ {
		data := make([]byte, 1+4*(1+src.Intn(16)))
		for i := range data {
			data[i] = byte(src.Intn(256))
		}
		s := decodeOpScript(data)
		ref := compareOpScript(t, s)
		piggybacks += ref.piggybacks
		packets += ref.packets
		batchErrs += ref.batchErrs
		joins += ref.joins
		joined := strings.Join(ref.log, "\n")
		errs += strings.Count(joined, "exec.opError")
		if strings.Contains(joined, "restart") {
			suppressed++
		}
		if s.trace {
			traced++
		}
	}
	t.Logf("piggybacked reads %d, reply fragments %d, error replies %d (%d to batch members), joins %d, crash scripts %d, traced scripts %d",
		piggybacks, packets, errs, batchErrs, joins, suppressed, traced)
	if piggybacks == 0 || packets == 0 || errs == 0 || batchErrs == 0 || joins == 0 || suppressed == 0 || traced == 0 {
		t.Fatal("the scripts miss a case the operators must handle")
	}
}

// FuzzOperatorContinuation holds arbitrary scripts to the reference.
func FuzzOperatorContinuation(f *testing.F) {
	f.Add([]byte{0x02, 0x00, 0x00, 0x20, 0x3f})
	f.Add([]byte{0x81, 0x0a, 0x00, 0x10, 0x0f, 0x1a, 0x00, 0x10, 0x0f, 0x07, 0x02, 0x80, 0x3a})
	f.Add([]byte{0x83, 0x0d, 0x01, 0x00, 0x08, 0x00, 0x00, 0x00, 0x3f, 0x0e, 0x03, 0x00, 0x04, 0x15, 0x00, 0x40, 0x3f})
	f.Add(bytes.Repeat([]byte{0x04, 0x05, 0x10, 0x50, 0x8a}, 5))
	f.Add([]byte{0x82, 0x09, 0x00, 0x30, 0x47, 0x0c, 0x00, 0x00, 0x41, 0x1b, 0x01, 0x11, 0x07})
	f.Add([]byte{0x01, 0x0f, 0x00, 0x20, 0x0f, 0x1f, 0x02, 0x50, 0x48, 0x0e, 0x03, 0x00, 0x04})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1+4*24 {
			data = data[:1+4*24]
		}
		compareOpScript(t, decodeOpScript(data))
	})
}

// refManager is the reference run's inbox consumer: it starts one
// reference process per request, and feeds join traffic to the query's
// join operator process.
type refManager struct {
	n    *Node
	pool *refPool
}

func (m *refManager) HandleEvent() {
	n := m.n
	inbox := n.net.Inbox(n.ID)
	for msg, ok := inbox.Take(); ok; msg, ok = inbox.Take() {
		switch req := msg.Payload.(type) {
		case *startOp, *auxLookup:
			op := &refOperator{n: n, pool: m.pool, req: req}
			simtest.Spawn(n.eng, op.Name(), op.Run)
		case *batchOp:
			simtest.Spawn(n.eng, fmt.Sprintf("node%d.sharedop", n.ID), func(p *simtest.Proc) {
				refRunSharedBatch(n, m.pool, p, *req)
			})
		case *joinScan:
			simtest.Spawn(n.eng, fmt.Sprintf("node%d.joinscan.q%d", n.ID, req.QueryID), func(p *simtest.Proc) {
				refRunJoinScan(n, m.pool, p, *req)
			})
		case joinBatch:
			refRouteJoinMsg(n, req.QueryID, req.ReplyTo, req.Scanners, req)
		case joinEnd:
			refRouteJoinMsg(n, req.QueryID, req.ReplyTo, req.Scanners, req)
		case nil:
			// A fragment of a multi-packet join batch.
		default:
			panic(fmt.Sprintf("reference: unexpected message %T", msg.Payload))
		}
	}
}

// refOperator is one reference operator process.
type refOperator struct {
	n    *Node
	pool *refPool
	req  any
}

func (op *refOperator) Run(p *simtest.Proc) {
	switch req := op.req.(type) {
	case *startOp:
		refRunSelect(op.n, op.pool, p, *req)
	case *auxLookup:
		refRunAuxLookup(op.n, op.pool, p, *req)
	}
}

// Name names the process exactly as the operator names itself.
func (op *refOperator) Name() string {
	id := op.n.ID
	switch req := op.req.(type) {
	case *startOp:
		if req.Agg != nil {
			return fmt.Sprintf("node%d.agg.q%d", id, req.QueryID)
		}
		return fmt.Sprintf("node%d.op.q%d", id, req.QueryID)
	default:
		return fmt.Sprintf("node%d.aux.q%d", id, req.(*auxLookup).QueryID)
	}
}

// refSend delivers a reply unless the node crashed after the operator
// started or is down now.
func refSend(n *Node, p *simtest.Proc, epoch int, msg hw.Message) {
	if n.down || n.epoch != epoch {
		return
	}
	netSend(p, n.net, n.CPU, msg)
}

// execute charges instr on cpu for the process p at normal priority,
// parking p through queueing and service.
func execute(p *simtest.Proc, cpu *hw.CPU, instr int) {
	if cpu.Charge(p, instr, hw.PrioNormal) {
		p.Park()
	}
}

// netSend transmits msg for the process p, parking p through each
// packet's protocol cost and wire time.
func netSend(p *simtest.Proc, net *hw.Network, cpu *hw.CPU, msg hw.Message) {
	var s hw.Send
	for done := s.Start(net, p, cpu, msg); !done; done = s.Step() {
		p.Park()
	}
}

// refSendError reports an operator failure.
func refSendError(n *Node, p *simtest.Proc, epoch int, req int64, replyTo, attempt int, err error) {
	n.OpErrors++
	refSend(n, p, epoch, hw.Message{
		From: n.ID, To: replyTo, Bytes: controlBytes,
		Payload: opError{
			QueryID: req, Node: n.ID, Attempt: attempt,
			Transient: errors.Is(err, hw.ErrDiskIO), Msg: err.Error(),
		},
	})
}

// refRunSelect is the selection operator as a process.
func refRunSelect(n *Node, pool *refPool, p *simtest.Proc, req startOp) {
	p.SetQID(req.QueryID)
	epoch := n.epoch
	span := n.eng.StartSpan()
	role := req.Role
	fspan := n.eng.StartSpan()
	hold, err := n.Resolve(req.Relation, role, req.Epoch)
	var acc storage.Access
	if err == nil {
		acc, err = accessFor(hold.Frag, req.Access, req.Pred, req.TIDs, nil)
	}
	if err == nil {
		err = refChargeAccess(n, pool, p, acc, hold.Heat)
	}
	if err != nil {
		refSendError(n, p, epoch, req.QueryID, req.ReplyTo, req.Attempt, err)
		if span.Active() {
			span.End(n.ID, "op", "select "+req.Access.String()+" failed", req.QueryID, err.Error())
		}
		return
	}
	n.OpsExecuted++

	bytes := controlBytes
	var value int64
	if req.Agg != nil {
		for i := 0; i < acc.N; i++ {
			execute(p, n.CPU, n.costs.JoinProbeInstr)
		}
		value = req.Agg.partial(&acc)
	} else {
		n.TuplesShipped += int64(acc.N)
		bytes += n.params.TupleBytes(acc.N)
	}
	hold.Heat.Account(len(acc.IndexPages), acc.NumDataPages(), int64(bytes), role == Backup)
	if fspan.Active() {
		fspan.End(n.ID, "frag", obs.FragID{Relation: req.Relation, Kind: role.Kind()}.Label(),
			req.QueryID, fmt.Sprintf("%d pages, %d tuples", acc.PageCount(), acc.N))
	}
	refSend(n, p, epoch, hw.Message{
		From: n.ID, To: req.ReplyTo, Bytes: bytes,
		Payload: selResult{QueryID: req.QueryID, Node: n.ID, Tuples: acc.N,
			Value: value, Attempt: req.Attempt},
	})
	if span.Active() {
		span.End(n.ID, "op", "select "+req.Access.String(), req.QueryID,
			fmt.Sprintf("%d tuples", acc.N))
	}
}

// refRunAuxLookup is BERD's aux lookup as a process.
func refRunAuxLookup(n *Node, pool *refPool, p *simtest.Proc, req auxLookup) {
	p.SetQID(req.QueryID)
	epoch := n.epoch
	span := n.eng.StartSpan()
	role := req.Role
	hold, err := n.Resolve(req.Relation, role, req.Epoch)
	var aux *storage.AuxFragment
	if err == nil {
		if aux = hold.Aux[req.Pred.Attr]; aux == nil {
			err = fmt.Errorf("exec: node %d has no %s aux relation for %q attr %d at epoch %d",
				n.ID, role, req.Relation, req.Pred.Attr, req.Epoch)
		}
	}
	fspan := n.eng.StartSpan()
	var byProc [][]int64
	var entries int
	var pages []int
	if err == nil {
		byProc, entries, pages = aux.Lookup(req.Pred.Lo, req.Pred.Hi, nil)
		for _, pg := range pages {
			if err = pool.ReadHeat(p, pg, hold.AuxHeat); err != nil {
				break
			}
			execute(p, n.CPU, n.costs.IndexPageInstr)
		}
	}
	if err != nil {
		refSendError(n, p, epoch, req.QueryID, req.ReplyTo, req.Attempt, err)
		if span.Active() {
			span.End(n.ID, "op", "aux-lookup failed", req.QueryID, err.Error())
		}
		return
	}
	n.OpsExecuted++
	bytes := entries*auxEntryBytes + controlBytes
	hold.AuxHeat.Account(len(pages), 0, int64(bytes), role == Backup)
	if fspan.Active() {
		fspan.End(n.ID, "frag", obs.FragID{Relation: req.Relation, Kind: obs.FragAux}.Label(),
			req.QueryID, fmt.Sprintf("%d pages, %d tuples", len(pages), 0))
	}
	refSend(n, p, epoch, hw.Message{
		From: n.ID, To: req.ReplyTo, Bytes: bytes,
		Payload: auxResult{QueryID: req.QueryID, Node: n.ID, TIDsByProc: byProc,
			Entries: entries, Attempt: req.Attempt},
	})
	if span.Active() {
		span.End(n.ID, "op", "aux-lookup", req.QueryID,
			fmt.Sprintf("%d entries", entries))
	}
}

// refChargeAccess replays an access's page trace: each page's read, then
// its CPU, stopping at the first failed read.
func refChargeAccess(n *Node, pool *refPool, p *simtest.Proc, acc storage.Access, h *obs.FragHeat) error {
	for _, pg := range acc.IndexPages {
		if err := pool.ReadHeat(p, pg, h); err != nil {
			return err
		}
		execute(p, n.CPU, n.costs.IndexPageInstr)
	}
	for i := 0; i < acc.NumDataPages(); i++ {
		if err := pool.ReadHeat(p, acc.DataPage(i), h); err != nil {
			return err
		}
		execute(p, n.CPU, n.params.ReadPageInstr)
	}
	return nil
}

// refPool is the reference buffer pool: an exact LRU behind a map and a
// container/list, each miss in flight with its own record, and readers
// that piggyback on it parked until it completes, woken in the order they
// joined.
type refPool struct {
	eng      *sim.Engine
	capacity int
	disk     *hw.Disk
	rig      *opRig

	lru      *list.List // front = most recent; values are page numbers
	resident map[int]*list.Element
	inflight map[int]*refRead

	hits, misses int64
}

type refRead struct {
	waiters []*simtest.Proc
	done    bool
	err     error
}

func newRefPool(e *sim.Engine, capacity int, disk *hw.Disk, rig *opRig) *refPool {
	return &refPool{eng: e, capacity: capacity, disk: disk, rig: rig,
		lru: list.New(), resident: make(map[int]*list.Element), inflight: make(map[int]*refRead)}
}

func (b *refPool) ReadHeat(p *simtest.Proc, physPage int, h *obs.FragHeat) error {
	if b.capacity == 0 {
		b.misses++
		h.BufferMiss()
		return diskRead(p, b.disk, physPage, h)
	}
	if el, ok := b.resident[physPage]; ok {
		b.hits++
		h.BufferHit()
		b.lru.MoveToFront(el)
		return nil
	}
	if pr, ok := b.inflight[physPage]; ok {
		b.hits++
		h.BufferHit()
		b.rig.piggybacks++
		for !pr.done {
			pr.waiters = append(pr.waiters, p)
			p.Park()
		}
		return pr.err
	}
	b.misses++
	h.BufferMiss()
	pr := &refRead{}
	b.inflight[physPage] = pr
	pr.err = diskRead(p, b.disk, physPage, h)
	delete(b.inflight, physPage)
	if pr.err == nil {
		b.resident[physPage] = b.lru.PushFront(physPage)
		for b.lru.Len() > b.capacity {
			oldest := b.lru.Back()
			b.lru.Remove(oldest)
			delete(b.resident, oldest.Value.(int))
		}
	}
	pr.done = true
	for _, w := range pr.waiters {
		w.Wake()
	}
	pr.waiters = nil
	return pr.err
}

// refRunSharedBatch is the shared-scan batch as a process: every member's
// page trace is resolved up front, the union of the traces is read once
// with each page's CPU charged per member, and the members are answered in
// admission order; a failure fans out as one error report per member.
func refRunSharedBatch(n *Node, pool *refPool, p *simtest.Proc, req batchOp) {
	epoch := n.epoch
	span := n.eng.StartSpan()
	fail := func(err error) {
		for _, m := range req.Members {
			refSendError(n, p, epoch, m.QID, req.ReplyTo, m.Attempt, err)
		}
		if span.Active() {
			span.End(n.ID, "op", "shared select "+req.Access.String()+" failed", 0, err.Error())
		}
	}
	hold, err := n.Resolve(req.Relation, req.Role, req.Epoch)
	if err != nil {
		fail(err)
		return
	}
	h := hold.Heat
	accs := make([]storage.Access, len(req.Members))
	for i, m := range req.Members {
		if accs[i], err = accessFor(hold.Frag, req.Access, m.Pred, nil, nil); err != nil {
			fail(err)
			return
		}
	}
	seen := make(map[int]bool)
	idxPages, dataPages := 0, 0
	for i := range accs {
		acc := &accs[i]
		for _, pg := range acc.IndexPages {
			n.SharedPagesRequested++
			if !seen[pg] {
				seen[pg] = true
				idxPages++
				n.SharedPagesRead++
				if err := pool.ReadHeat(p, pg, h); err != nil {
					fail(err)
					return
				}
			}
			execute(p, n.CPU, n.costs.IndexPageInstr)
		}
		for j := 0; j < acc.NumDataPages(); j++ {
			pg := acc.DataPage(j)
			n.SharedPagesRequested++
			if !seen[pg] {
				seen[pg] = true
				dataPages++
				n.SharedPagesRead++
				if err := pool.ReadHeat(p, pg, h); err != nil {
					fail(err)
					return
				}
			}
			execute(p, n.CPU, n.params.ReadPageInstr)
		}
	}

	var batchBytes int64
	for i, m := range req.Members {
		tuples := accs[i].N
		n.OpsExecuted++
		n.TuplesShipped += int64(tuples)
		bytes := n.params.TupleBytes(tuples) + controlBytes
		batchBytes += int64(bytes)
		refSend(n, p, epoch, hw.Message{
			From: n.ID, To: req.ReplyTo, Bytes: bytes,
			Payload: opResult{QueryID: m.QID, Node: n.ID, Tuples: tuples, Attempt: m.Attempt},
		})
	}
	h.Account(idxPages, dataPages, batchBytes, req.Role == Backup)
	if span.Active() {
		span.End(n.ID, "op", "shared select "+req.Access.String(), 0,
			fmt.Sprintf("%d members, %d pages", len(req.Members), idxPages+dataPages))
	}
}

// refRouteJoinMsg delivers a join message to the query's worker, creating
// it and starting its operator process on first contact.
func refRouteJoinMsg(n *Node, qid int64, replyTo int, scanners int, msg any) {
	w := n.joins[qid]
	if w == nil {
		w = &joinWorker{qid: qid, replyTo: replyTo, scanners: scanners,
			inbox: sim.NewMailboxLabel[any](n.eng, sim.Labelf("node%d.join.q%d", int64(n.ID), qid))}
		if n.joins == nil {
			n.joins = make(map[int64]*joinWorker)
		}
		n.joins[qid] = w
		simtest.Spawn(n.eng, fmt.Sprintf("node%d.joinop.q%d", n.ID, qid), func(p *simtest.Proc) {
			refRunJoinOperator(n, p, w)
		})
	}
	w.inbox.Put(msg)
}

// refRunJoinScan is the join scan as a process: it scans the local
// fragment of one join input, routes each tuple through the split table,
// batching per destination, and sends every join operator an
// end-of-stream marker; an access error becomes one error report.
func refRunJoinScan(n *Node, pool *refPool, p *simtest.Proc, req joinScan) {
	p.SetQID(req.QueryID)
	epoch := n.epoch
	hold, err := n.Resolve(req.Relation, Primary, req.Epoch)
	var acc storage.Access
	if err == nil {
		acc = hold.Frag.Scan(req.Pred.Attr, req.Pred.Lo, req.Pred.Hi, nil)
		err = refChargeAccess(n, pool, p, acc, hold.Heat)
	}
	if err != nil {
		refSendError(n, p, epoch, req.QueryID, req.ReplyTo, 0, err)
		refSendEnds(n, p, epoch, req, true)
		return
	}
	hold.Heat.Account(len(acc.IndexPages), acc.NumDataPages(), 0, false)
	n.OpsExecuted++

	buckets := make(map[int][]int64)
	for i := 0; i < acc.N; i++ {
		key := acc.Tuple(i).Attrs[req.Attr]
		dst := n.ID
		if !req.Local {
			dst = physOf(req.Topo, core.JoinBucket(key, req.Slots))
		}
		buckets[dst] = append(buckets[dst], key)
		execute(p, n.CPU, n.costs.JoinHashInstr)
	}
	dsts := make([]int, 0, len(buckets))
	for d := range buckets {
		dsts = append(dsts, d)
	}
	sort.Ints(dsts)
	for _, dst := range dsts {
		keys := buckets[dst]
		n.TuplesShipped += int64(len(keys))
		batch := joinBatch{QueryID: req.QueryID, Phase: req.Phase,
			Keys: keys, ReplyTo: req.ReplyTo, Scanners: req.Slots}
		if dst == n.ID {
			refRouteJoinMsg(n, req.QueryID, req.ReplyTo, req.Slots, batch)
			continue
		}
		refSend(n, p, epoch, hw.Message{
			From: n.ID, To: dst,
			Bytes:   n.params.TupleBytes(len(keys)) + controlBytes,
			Payload: batch,
		})
	}
	refSendEnds(n, p, epoch, req, false)
}

// refSendEnds sends every join operator the scan's end-of-stream marker,
// aborted when the scan failed.
func refSendEnds(n *Node, p *simtest.Proc, epoch int, req joinScan, aborted bool) {
	for slot := 0; slot < req.Slots; slot++ {
		end := joinEnd{QueryID: req.QueryID, Phase: req.Phase,
			ReplyTo: req.ReplyTo, Scanners: req.Slots, Aborted: aborted}
		dst := physOf(req.Topo, slot)
		if dst == n.ID {
			refRouteJoinMsg(n, req.QueryID, req.ReplyTo, req.Slots, end)
			continue
		}
		refSend(n, p, epoch, hw.Message{
			From: n.ID, To: dst, Bytes: controlBytes, Payload: end,
		})
	}
}

// refRunJoinOperator is the join operator as a process: it builds a hash
// table from the build batches, probes it with the probe batches (those
// that arrive before the build phase closes wait for it), and reports its
// match count once every scanner has ended both phases.
func refRunJoinOperator(n *Node, p *simtest.Proc, w *joinWorker) {
	qid, scanners := w.qid, w.scanners
	p.SetQID(qid)
	epoch := n.epoch
	table := make(map[int64]int)
	var pendingProbe []joinBatch
	buildEnds, probeEnds := 0, 0
	matches := 0
	built, aborted := false, false

	probe := func(b joinBatch) {
		for _, key := range b.Keys {
			execute(p, n.CPU, n.costs.JoinProbeInstr)
			matches += table[key]
		}
	}

	for buildEnds < scanners || probeEnds < scanners {
		switch m := simtest.Get(p, w.inbox).(type) {
		case joinBatch:
			if m.Phase == phaseBuild {
				for _, key := range m.Keys {
					execute(p, n.CPU, n.costs.JoinBuildInstr)
					table[key]++
				}
			} else if built {
				probe(m)
			} else {
				pendingProbe = append(pendingProbe, m)
			}
		case joinEnd:
			aborted = aborted || m.Aborted
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
	if aborted {
		delete(n.joins, qid)
		return
	}
	n.OpsExecuted++
	bytes := matches*2*n.params.TupleSize + controlBytes
	refSend(n, p, epoch, hw.Message{
		From: n.ID, To: w.replyTo, Bytes: bytes,
		Payload: joinDone{QueryID: qid, Node: n.ID, Matches: matches},
	})
	delete(n.joins, qid)
}
