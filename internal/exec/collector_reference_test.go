package exec

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/storage"
)

// The Scheduler's per-query collector is checked against its first form,
// kept here as the reference: the query's coordinator as code running in
// the submitting process, which holds for the plan and catalog-search
// delays and the retry backoff, blocks in each host send, and waits for
// replies in a per-query mailbox the host's dispatcher feeds, with
// GetTimeout under an operator timeout or a deadline. Each script runs
// twice on identical three-node machines, once with terminals calling the
// host's Submit and once with terminals running the reference, and the two
// runs must log the same steps: every reply delivered to the host with the
// orphans counted so far, every scripted fault, and every query's result,
// each with the clock and the events dispatched so far; every trace event
// (spans with their query tags) when the script traces; and the final
// counters.

// colRigNodes is the operator nodes of the collector rig; the host is node
// colRigNodes.
const colRigNodes = 3

// colTerminals is the terminals that submit a script's queries.
const colTerminals = 3

// colHorizon ends every run: a query a silent node strands, with no
// deadline, would otherwise wait on its operator timeout forever.
const colHorizon = sim.Time(4 * sim.Second)

// Script actions, by a byte's low nibble. Queries go to a terminal, faults
// to a node.
const (
	colPrimary   = iota // a select on unique1, BERD's partitioning attribute
	colTwoStep          // a select on unique2: BERD's aux step, then the operators
	colScanAll          // a sequential-scan select on ten, at every node
	colAggregate        // an aggregate over a select on unique1 or unique2
	colJoin             // s joined with r (repartitioned) or with itself (co-located)
	colFailNext         // FailNextReads on the node's disk: transient errors
	colDiskFail         // Disk.Fail, then Repair after a delay
	colCrash            // node Crash, then Restart after a delay
	colDropHost         // DropNext on the host: replies lost
	colDupHost          // DupNext on the host: replies twice
	colDropNode         // DropNext on the node: requests lost
)

var colActKinds = [16]int{
	colPrimary, colPrimary, colTwoStep, colTwoStep,
	colTwoStep, colScanAll, colAggregate, colAggregate,
	colJoin, colJoin, colFailNext, colDiskFail,
	colCrash, colDropHost, colDupHost, colDropNode,
}

type colAction struct {
	kind, who int // who: the terminal of a query, the node of a fault
	at        sim.Duration
	lo, width int64
	arg       int
}

// colScript is one run: the scheduler's configuration and the actions.
// Without a Degraded policy, faults are skipped: the zero policy treats a
// reply for a finished query as a programming error.
type colScript struct {
	degraded  bool
	policy    RetryPolicy
	jitter    bool // backoff draws from a jitter stream
	announce  bool // faults update the scheduler's health view
	share     bool // selections ride shared-scan batches
	fetchTIDs bool // BERD's second step fetches by TID
	trace     bool
	actions   []colAction
}

// decodeColScript turns arbitrary bytes into a script: two bytes of
// configuration, then four bytes per action: its kind and terminal or
// node, its delay (a query's think time before it is submitted, a fault's
// instant) in 250µs steps, and two arguments (a predicate's low end and
// width, an aggregate function, a variant, a fault's count or delay).
func decodeColScript(data []byte) colScript {
	var cfg [2]byte
	copy(cfg[:], data)
	if len(data) > 2 {
		data = data[2:]
	} else {
		data = nil
	}
	s := colScript{
		degraded:  cfg[0]&0x01 != 0,
		share:     cfg[0]&0x08 != 0,
		fetchTIDs: cfg[0]&0x10 != 0,
		jitter:    cfg[0]&0x20 != 0,
		announce:  cfg[0]&0x40 != 0,
		trace:     cfg[0]&0x80 != 0,
	}
	if s.degraded {
		if cfg[0]&0x02 != 0 {
			s.policy.OpTimeout = sim.Duration(1+cfg[1]&7) * 15 * sim.Millisecond
		}
		if cfg[0]&0x04 != 0 {
			s.policy.QueryDeadline = sim.Duration(1+cfg[1]>>3&7) * 60 * sim.Millisecond
		}
		s.policy.MaxRetries = int(cfg[1] >> 6)
		s.policy.BackoffBase = sim.Duration(cfg[1]>>6) * sim.Millisecond
		s.policy.BackoffCap = 3 * sim.Millisecond
	}
	for rest := data; len(rest) > 0; rest = rest[min(4, len(rest)):] {
		var b [4]byte
		copy(b[:], rest)
		s.actions = append(s.actions, colAction{
			kind:  colActKinds[b[0]&15],
			who:   int(b[0] >> 4),
			at:    sim.Duration(b[1]) * 250 * sim.Microsecond,
			lo:    int64(b[2]),
			width: 1 + int64(b[3]&0x3f),
			arg:   int(b[3] >> 6),
		})
	}
	return s
}

// colRig is one run of a script: the machine, its terminals' submit
// function, and the step log.
type colRig struct {
	eng    *sim.Engine
	net    *hw.Network
	host   *Host
	nodes  []*Node
	view   *fault.View
	w      *storage.Relation
	submit func(p *sim.Proc, n *plan.Node) QueryResult
	log    []string
}

func (r *colRig) logf(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf("%d %d ", r.eng.Now(), r.eng.Stats().Events)+fmt.Sprintf(format, args...))
}

// searched adds a catalog directory search to a placement's routes, so the
// scheduler charges the CS delay on every query of the relation.
type searched struct{ core.Placement }

func (s searched) Route(pred core.Predicate) core.Route {
	r := s.Placement.Route(pred)
	r.EntriesSearched = 1 + len(r.Participants) + 2*len(r.Aux)
	return r
}

// colFragment builds the fragment of rel's tuples placed at slot, with
// indexes on unique1 and unique2.
func colFragment(rel *storage.Relation, pl core.Placement, slot int, alloc *storage.Allocator) *storage.Fragment {
	var rows []int32
	for row, tup := range rel.Tuples {
		if pl.HomeOf(tup) == slot {
			rows = append(rows, int32(row))
		}
	}
	layout := storage.Layout{TuplesPerPage: 8, IndexFanout: 8, IndexLeafCap: 8}
	frag := storage.BuildFragment(slot, rel.Tuples, rows, make([]int32, len(rel.Tuples)), storage.Unique2, layout, alloc)
	frag.AddIndex(storage.Unique2, alloc)
	frag.AddIndex(storage.Unique1, alloc)
	return frag
}

// newColRig builds the machine: "w", BERD-declustered on unique1 with an
// aux relation on unique2 and chained backups of every slot (aux
// included), and the join inputs "r" (range on unique1) and "s" (hash on
// unique1), each node with a four-frame pool. The reference run installs
// the reference dispatcher as the host's inbox consumer and submits
// through the reference collector.
func newColRig(s colScript, reference bool) *colRig {
	eng := sim.New()
	params := hw.DefaultParams()
	streams := rng.NewFactory(37)
	cpus := make([]*hw.CPU, colRigNodes+1)
	for i := 0; i < colRigNodes; i++ {
		cpus[i] = hw.NewCPU(eng, fmt.Sprintf("cpu%d", i), params)
		cpus[i].SetNode(i)
	}
	net := hw.NewNetwork(eng, params, cpus)
	w := storage.GenerateWisconsin(storage.GenSpec{Name: "w", Cardinality: 150, Seed: 9})
	rr := storage.GenerateWisconsin(storage.GenSpec{Name: "r", Cardinality: 48, Seed: 10})
	ss := storage.GenerateWisconsin(storage.GenSpec{Name: "s", Cardinality: 30, Seed: 11})
	berd := core.NewBERDForRelation(w, storage.Unique1, []int{storage.Unique2}, colRigNodes)
	rPl := core.NewRangeForRelation(rr, storage.Unique1, colRigNodes)
	sPl := core.NewHash(storage.Unique1, colRigNodes)
	homes := make([]int32, len(w.Tuples))
	for i, tup := range w.Tuples {
		homes[i] = int32(berd.HomeOf(tup))
	}
	auxBySlot := berd.AuxAssignments(w, storage.Unique2, homes)
	r := &colRig{eng: eng, net: net, w: w, view: fault.NewView(colRigNodes)}
	if s.trace {
		eng.SetSink(obs.SinkFunc(func(ev obs.TraceEvent) {
			r.logf("trace t=%d dur=%d node=%d %v %s %q q%d %q",
				ev.T, ev.Dur, ev.Node, ev.Kind, ev.Category, ev.Name, ev.QueryID, ev.Detail)
		}))
	}
	allocs := make([]*storage.Allocator, colRigNodes)
	for i := 0; i < colRigNodes; i++ {
		disk := hw.NewDisk(eng, fmt.Sprintf("disk%d", i), params, cpus[i], streams.Stream(fmt.Sprintf("lat%d", i)))
		disk.SetNode(i)
		n := NewNode(eng, i, params, DefaultCosts(), net, cpus[i], disk, buffer.NewPool(eng, 4, disk))
		allocs[i] = storage.NewAllocator(100000)
		layout := storage.Layout{TuplesPerPage: 8, IndexFanout: 8, IndexLeafCap: 8}
		n.Attach(0, w.Name, Primary, Holding{Frag: colFragment(w, berd, i, allocs[i]),
			Aux: map[int]*storage.AuxFragment{storage.Unique2: storage.BuildAux(i, auxBySlot[i], layout, allocs[i])}})
		n.Attach(0, rr.Name, Primary, Holding{Frag: colFragment(rr, rPl, i, allocs[i])})
		n.Attach(0, ss.Name, Primary, Holding{Frag: colFragment(ss, sPl, i, allocs[i])})
		n.Start()
		r.nodes = append(r.nodes, n)
	}
	for i := 0; i < colRigNodes; i++ {
		b := core.ChainBackup(i, colRigNodes)
		layout := storage.Layout{TuplesPerPage: 8, IndexFanout: 8, IndexLeafCap: 8}
		r.nodes[b].Attach(0, w.Name, Backup, Holding{Frag: colFragment(w, berd, i, allocs[b]),
			Aux: map[int]*storage.AuxFragment{storage.Unique2: storage.BuildAux(i, auxBySlot[i], layout, allocs[b])}})
	}
	h := NewHost(eng, colRigNodes, params, net, DefaultCosts())
	h.AddRelation(w.Name, searched{berd})
	h.AddRelation(rr.Name, rPl)
	h.AddRelation(ss.Name, sPl)
	h.BERDFetchByTID = s.fetchTIDs
	if s.degraded {
		d := &Degraded{Policy: s.policy, View: r.view, Backup: func(slot, slots int) int {
			if slots <= 0 {
				slots = colRigNodes
			}
			return core.ChainBackup(slot, slots)
		}}
		if s.jitter {
			d.Jitter = streams.Stream("retry.jitter")
		}
		h.Degraded = d
	}
	if s.share {
		h.EnableSharing(20 * sim.Millisecond)
	}
	r.host = h
	if reference {
		rh := &refScheduler{h: h, pending: make(map[int64]*sim.Mailbox[any])}
		net.Inbox(colRigNodes).Consume(&refDispatch{r: r, rh: rh})
		r.submit = rh.submit
	} else {
		net.Inbox(colRigNodes).Consume((*colReplyLog)(r))
		r.submit = h.Submit
	}
	return r
}

// colReplyLog is the host's inbox consumer in the collector run: it logs
// every reply and hands it to the host's dispatch.
type colReplyLog colRig

func (c *colReplyLog) HandleEvent() {
	r := (*colRig)(c)
	inbox := r.net.Inbox(colRigNodes)
	for m, ok := inbox.Take(); ok; m, ok = inbox.Take() {
		r.logReply(m)
		r.host.deliver(m.Payload)
	}
}

// logReply logs a reply delivered to the host.
func (r *colRig) logReply(m hw.Message) {
	reply := replyForm(m.Payload)
	r.logf("reply %d->%d %dB %T%+v orphans=%d", m.From, m.To, m.Bytes, reply, reply, r.host.Orphans)
}

// query returns the plan of a query action.
func (r *colRig) query(a colAction) *plan.Node {
	pred := core.Predicate{Lo: a.lo * 150 / 256, Hi: a.lo*150/256 + a.width - 1}
	switch a.kind {
	case colPrimary:
		pred.Attr = storage.Unique1
		return plan.Select(r.w.Name, pred, plan.AccessNonClustered)
	case colTwoStep:
		pred.Attr = storage.Unique2
		return plan.Select(r.w.Name, pred, plan.AccessClustered)
	case colScanAll:
		pred = core.Predicate{Attr: storage.Ten, Lo: a.lo % 10, Hi: a.lo%10 + int64(a.arg)}
		return plan.Select(r.w.Name, pred, plan.AccessSeqScan)
	case colAggregate:
		access := plan.AccessClustered
		if pred.Attr = storage.Unique2; a.width%2 == 0 {
			pred.Attr, access = storage.Unique1, plan.AccessNonClustered
		}
		return plan.NewAggregate(plan.AggFn(a.arg), storage.Unique1, plan.Select(r.w.Name, pred, access))
	default: // colJoin
		build := plan.NewScanWhere("s", core.Predicate{Attr: storage.Unique1, Lo: 0, Hi: a.lo % 30})
		if a.arg%2 == 1 {
			return plan.NewJoin(storage.Unique1, build, plan.NewScan("s"))
		}
		return plan.NewJoin(storage.Unique1, build, plan.NewScan("r"))
	}
}

// schedule spawns the terminals, each submitting its queries in script
// order after their think times, and enters every fault at its instant.
func (r *colRig) schedule(s colScript) {
	var queues [colTerminals][]colAction
	for i, a := range s.actions {
		if a.kind <= colJoin {
			queues[a.who%colTerminals] = append(queues[a.who%colTerminals], a)
			continue
		}
		i, a := i, a
		r.eng.Schedule(a.at*2, func() { r.fault(s, i, a) })
	}
	for term, queue := range queues {
		term, queue := term, queue
		r.eng.Spawn(fmt.Sprintf("terminal%d", term), func(p *sim.Proc) {
			for _, a := range queue {
				p.Hold(a.at)
				q := r.query(a)
				r.logf("submit terminal%d %s", term, q)
				res := r.submit(p, q)
				r.logf("done terminal%d %+v orphans=%d run=%d", term, res, r.host.Orphans, r.host.QueriesRun)
			}
		})
	}
}

// fault runs one fault action, or logs it skipped without a policy.
func (r *colRig) fault(s colScript, i int, a colAction) {
	node := a.who % colRigNodes
	r.logf("fault %d kind=%d node=%d arg=%d width=%d", i, a.kind, node, a.arg, a.width)
	if !s.degraded {
		return
	}
	n := r.nodes[node]
	switch a.kind {
	case colFailNext:
		n.Disk.FailNextReads(1 + a.arg)
	case colDiskFail:
		n.Disk.Fail()
		if s.announce {
			r.view.SetDisk(node, false)
		}
		r.eng.Schedule(sim.Duration(a.width)*sim.Millisecond, func() {
			r.logf("repair disk%d", node)
			n.Disk.Repair()
			r.view.SetDisk(node, true)
		})
	case colCrash:
		n.Crash()
		if s.announce {
			r.view.SetNode(node, false)
		}
		r.eng.Schedule(sim.Duration(a.width)*2*sim.Millisecond, func() {
			r.logf("restart node%d", node)
			n.Restart()
			r.view.SetNode(node, true)
		})
	case colDropHost:
		r.net.DropNext(colRigNodes, 1+a.arg)
	case colDupHost:
		r.net.DupNext(colRigNodes, 1+a.arg)
	case colDropNode:
		r.net.DropNext(node, 1)
	}
}

// runColScript runs s with the host's collector, or with the reference,
// to the horizon, and returns the rig with its step log ending in the
// final counters.
func runColScript(t testing.TB, s colScript, reference bool) *colRig {
	r := newColRig(s, reference)
	r.schedule(s)
	if err := r.eng.RunUntil(colHorizon); err != nil {
		t.Fatalf("run: %v", err)
	}
	h := r.host
	for _, n := range r.nodes {
		r.logf("node%d ops=%d shipped=%d errors=%d reads=%d", n.ID, n.OpsExecuted, n.TuplesShipped, n.OpErrors, n.Disk.Reads())
	}
	var shared SharingStats
	if h.Shared != nil {
		shared = h.Shared.Stats()
	}
	r.logf("host run=%d orphans=%d qids=%d attempts=%d shared=%+v", h.QueriesRun, h.Orphans, h.nextQID, h.nextAttempt, shared)
	r.log = append(r.log, fmt.Sprintf("events=%d", r.eng.Stats().Events))
	r.eng.Close()
	if n := r.eng.Active(); n != 0 {
		t.Fatalf("%d processes survive Close", n)
	}
	return r
}

// compareColScript runs s both ways and reports the first step where the
// logs part.
func compareColScript(t testing.TB, s colScript) (ref *colRig) {
	t.Helper()
	got := runColScript(t, s, false).log
	ref = runColScript(t, s, true)
	want := ref.log
	for i := range max(len(got), len(want)) {
		if g, w := logLine(got, i), logLine(want, i); g != w {
			t.Fatalf("the collector parts from the process reference at step %d of %d\n got: %s\nwant: %s",
				i, len(want), g, w)
		}
	}
	return ref
}

// TestCollectorMatchesProcessReference runs 600 seeded scripts both ways
// and checks that they reach what the collector must get right: BERD's
// two steps, joins, shared batches, retries, backup rerouting, operator
// timeouts, deadlines, failures, orphaned replies, queries the horizon
// leaves in flight, and traced runs.
func TestCollectorMatchesProcessReference(t *testing.T) {
	src := rng.NewFactory(37).Stream("collector-scripts")
	cover := map[string]int{}
	for n := 0; n < 600; n++ {
		data := make([]byte, 2+4*(1+src.Intn(12)))
		for i := range data {
			data[i] = byte(src.Intn(256))
		}
		s := decodeColScript(data)
		ref := compareColScript(t, s)
		joined := strings.Join(ref.log, "\n")
		for _, c := range []struct{ name, needle string }{
			{"two-step", "aux frag@"}, {"join", "exec.joinDone"},
			{"retried", "Outcome:retried"}, {"timed out", "Outcome:timed-out"}, {"failed", "Outcome:failed"},
			{"op error", "exec.opError"}, {"restart", "restart node"}, {"repair", "repair disk"},
			{"rerouted", "(backup)"}, {"unresponsive", "unresponsive after"},
		} {
			if strings.Contains(joined, c.needle) {
				cover[c.name]++
			}
		}
		if h := ref.host; h.Orphans > 0 {
			cover["orphaned"]++
		}
		if h := ref.host; h.Shared != nil && h.Shared.Stats().SharedOps > 0 {
			cover["shared"]++
		}
		if submits, dones := strings.Count(joined, " submit "), strings.Count(joined, " done "); submits > dones {
			cover["in flight at the horizon"]++
		}
		if s.trace {
			cover["traced"]++
		}
	}
	t.Logf("coverage %v", cover)
	for _, c := range []string{"two-step", "join", "retried", "timed out", "failed", "orphaned",
		"op error", "restart", "repair", "rerouted", "unresponsive", "shared", "in flight at the horizon", "traced"} {
		if cover[c] == 0 {
			t.Errorf("no script covers %s", c)
		}
	}
}

// FuzzCollectorContinuation holds arbitrary scripts to the reference.
func FuzzCollectorContinuation(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x04, 0x10, 0x08, 0x12, 0x00, 0x20, 0x08})
	f.Add([]byte{0x87, 0x92, 0x02, 0x00, 0x40, 0x05, 0x0c, 0x04, 0x00, 0x3f, 0x1d, 0x02, 0x00, 0x10})
	f.Add([]byte{0x4f, 0xc9, 0x03, 0x00, 0x60, 0x04, 0x0a, 0x01, 0x00, 0x80, 0x18, 0x08, 0x30, 0x0c, 0x2e, 0x00, 0x00, 0x40})
	f.Add(append([]byte{0x3b, 0x5a}, bytes.Repeat([]byte{0x06, 0x02, 0x50, 0x47, 0x19, 0x01, 0x10, 0x0b}, 4)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2+4*20 {
			data = data[:2+4*20]
		}
		compareColScript(t, decodeColScript(data))
	})
}

// refScheduler is the reference's host state beside the Host it shares: the
// mailbox of each query in flight.
type refScheduler struct {
	h       *Host
	pending map[int64]*sim.Mailbox[any]
}

// refDispatch is the reference run's host inbox consumer: it logs every
// reply and forwards it to its query's mailbox.
type refDispatch struct {
	r  *colRig
	rh *refScheduler
}

func (d *refDispatch) HandleEvent() {
	h := d.rh.h
	inbox := h.net.Inbox(h.ID)
	for m, ok := inbox.Take(); ok; m, ok = inbox.Take() {
		d.r.logReply(m)
		var qid int64
		reply := replyForm(m.Payload)
		switch r := reply.(type) {
		case selResult:
			qid = r.QueryID
		case opResult:
			qid = r.QueryID
		case opError:
			qid = r.QueryID
		case auxResult:
			qid = r.QueryID
		case joinDone:
			qid = r.QueryID
		case nil:
			continue
		default:
			panic(fmt.Sprintf("reference: unexpected message %T", r))
		}
		mb, ok := d.rh.pending[qid]
		if !ok {
			if h.Degraded != nil {
				h.Orphans++
				continue
			}
			panic(fmt.Sprintf("reference: result for unknown query %d", qid))
		}
		mb.Put(reply)
	}
}

// submit is Host.Submit with the reference collector.
func (rh *refScheduler) submit(p *sim.Proc, n *plan.Node) QueryResult {
	h := rh.h
	if err := n.Validate(); err != nil {
		panic(fmt.Sprintf("exec: invalid plan: %v", err))
	}
	switch n.Kind {
	case plan.KindAggregate:
		relation, pred, kind := h.resolveSelection(n.Inputs[0])
		return rh.schedule(p, relation, pred, kind, &aggregate{fn: n.Fn, attr: n.Attr})
	case plan.KindJoin:
		buildRel, buildPred, _ := h.resolveSelection(n.Inputs[0])
		probeRel, probePred, _ := h.resolveSelection(n.Inputs[1])
		return rh.join(p, n.Attr, joinInput{buildRel, buildPred}, joinInput{probeRel, probePred})
	default:
		relation, pred, kind := h.resolveSelection(n)
		return rh.schedule(p, relation, pred, kind, nil)
	}
}

// refCollector is the reference collector: the query's state, run by the
// submitting process p.
type refCollector struct {
	h        *Host
	rh       *refScheduler
	d        *Degraded
	p        *sim.Proc
	mb       *sim.Mailbox[any]
	deadline sim.Time
	topo     []int
	epoch    int

	qid        int64
	relation   string
	pred       core.Predicate
	kind       plan.Access
	aux        bool
	share      bool
	agg        *aggregate
	tidsByProc [][]int64
	fetchTIDs  bool

	calls   []call
	used    []uint64
	retries int
	res     QueryResult
	span    sim.Span
}

func (col *refCollector) backupOf(slot int) int {
	if col.d.Backup == nil {
		return -1
	}
	return col.d.Backup(slot, len(col.topo))
}

func (col *refCollector) pickTarget(c *call) (int, bool) {
	prefSlot, altSlot := c.primary, col.backupOf(c.primary)
	if c.role == Backup {
		prefSlot, altSlot = altSlot, prefSlot
	}
	if prefSlot >= 0 {
		if phys := physOf(col.topo, prefSlot); col.d.available(phys) {
			return phys, true
		}
	}
	if altSlot >= 0 {
		if phys := physOf(col.topo, altSlot); col.d.available(phys) {
			c.role = c.role.other()
			return phys, true
		}
	}
	return -1, false
}

func (col *refCollector) send(c *call) bool {
	target, ok := col.pickTarget(c)
	if !ok {
		return false
	}
	c.target = target
	col.h.nextAttempt++
	c.attempt = col.h.nextAttempt
	col.use(target)
	col.dispatch(c)
	return true
}

func (col *refCollector) retry(c *call) bool {
	if c.retries >= col.d.Policy.MaxRetries {
		return false
	}
	c.retries++
	col.retries++
	col.backoff(c.retries)
	return col.send(c)
}

func (col *refCollector) backoff(nth int) {
	d := col.d.Policy.BackoffBase
	for i := 1; i < nth && d < col.d.Policy.BackoffCap; i++ {
		d *= 2
	}
	if d > col.d.Policy.BackoffCap {
		d = col.d.Policy.BackoffCap
	}
	if col.d.Jitter != nil {
		d = sim.Duration(float64(d) * col.d.Jitter.Uniform(0.5, 1.5))
	}
	if d > 0 {
		col.p.Hold(d)
	}
}

func (col *refCollector) live(id int) *call {
	for i := range col.calls {
		if c := &col.calls[i]; c.attempt == id && !c.done {
			return c
		}
	}
	return nil
}

func (col *refCollector) pastDeadline() bool {
	return col.deadline > 0 && col.p.Now() >= col.deadline
}

func (col *refCollector) receive() (msg any, ok bool) {
	wait := col.d.Policy.OpTimeout
	if col.deadline > 0 {
		if left := sim.Duration(col.deadline - col.p.Now()); wait == 0 || left < wait {
			wait = left
		}
	}
	if wait == 0 {
		return col.mb.Get(col.p), true
	}
	return col.mb.GetTimeout(col.p, wait)
}

func (col *refCollector) run(primaries []int) (Outcome, error) {
	col.res.ServedBy = slices.Grow(col.res.ServedBy, len(primaries))
	col.calls = make([]call, len(primaries))
	for i, slot := range primaries {
		col.calls[i] = call{primary: slot, target: -1}
	}
	for i := range col.calls {
		if c := &col.calls[i]; !col.send(c) {
			return OutcomeFailed, fmt.Errorf("exec: no available replica of node %d's fragment", c.primary)
		}
	}
	for remaining := len(col.calls); remaining > 0; {
		if col.pastDeadline() {
			return OutcomeTimedOut, fmt.Errorf("exec: query deadline exceeded with %d operators outstanding", remaining)
		}
		msg, ok := col.receive()
		if !ok {
			if col.pastDeadline() {
				return OutcomeTimedOut, fmt.Errorf("exec: query deadline exceeded with %d operators outstanding", remaining)
			}
			for i := range col.calls {
				c := &col.calls[i]
				if c.done {
					continue
				}
				c.role = c.role.other()
				if !col.retry(c) {
					return OutcomeFailed, fmt.Errorf("exec: node %d's operator unresponsive after %d attempts", c.primary, c.retries+1)
				}
			}
			continue
		}
		switch r := msg.(type) {
		case opError:
			c := col.live(r.Attempt)
			if c == nil {
				col.h.Orphans++
				continue
			}
			if !r.Transient {
				c.role = c.role.other()
			}
			if !col.retry(c) {
				return OutcomeFailed, fmt.Errorf("exec: operator on node %d failed: %s", r.Node, r.Msg)
			}
		case attemptTagged:
			c := col.live(r.attemptID())
			if c == nil {
				col.h.Orphans++
				continue
			}
			c.done = true
			remaining--
			col.accept(c, msg)
		}
	}
	return OutcomeOK, nil
}

func (col *refCollector) dispatch(c *call) {
	h := col.h
	if col.aux {
		netSend(col.p, h.net, nil, hw.Message{
			From: h.ID, To: c.target, Bytes: controlBytes,
			Payload: &auxLookup{QueryID: col.qid, Relation: col.relation, Pred: col.pred,
				ReplyTo: h.ID, Attempt: c.attempt, Role: c.role, Epoch: col.epoch},
		})
		return
	}
	if col.share {
		h.Shared.enqueue(c.target, col.relation, col.pred, col.kind, col.qid, c.attempt, c.role, col.epoch)
		return
	}
	op := &startOp{QueryID: col.qid, Relation: col.relation, Pred: col.pred, ReplyTo: h.ID,
		Access: col.kind, Attempt: c.attempt, Role: c.role, Epoch: col.epoch, Agg: col.agg}
	if col.fetchTIDs {
		op.Access = plan.AccessTIDFetch
		op.TIDs = col.tidsByProc[c.primary]
	}
	netSend(col.p, h.net, nil, hw.Message{
		From: h.ID, To: c.target, Bytes: controlBytes, Payload: op,
	})
}

func (col *refCollector) accept(c *call, msg any) {
	switch r := msg.(type) {
	case auxResult:
		col.res.ServedBy = append(col.res.ServedBy, ServedOp{
			Fragment: c.primary, Node: c.target, Backup: c.role == Backup, Aux: true,
		})
		col.mergeAux(r.TIDsByProc)
	case selResult:
		if col.agg != nil && r.Tuples > 0 {
			col.res.Value = col.agg.fold(col.res.Value, r.Value, col.res.Tuples == 0)
		}
		col.res.Tuples += r.Tuples
		col.res.ServedBy = append(col.res.ServedBy, ServedOp{
			Fragment: c.primary, Node: c.target, Backup: c.role == Backup, Tuples: r.Tuples,
		})
	case opResult:
		col.res.Tuples += r.Tuples
		col.res.ServedBy = append(col.res.ServedBy, ServedOp{
			Fragment: c.primary, Node: c.target, Backup: c.role == Backup, Tuples: r.Tuples,
		})
	}
}

func (col *refCollector) mergeAux(byProc [][]int64) {
	if col.tidsByProc == nil {
		col.tidsByProc = byProc
		return
	}
	if n := len(byProc); n > len(col.tidsByProc) {
		col.tidsByProc = append(col.tidsByProc, make([][]int64, n-len(col.tidsByProc))...)
	}
	for proc, tids := range byProc {
		if have := col.tidsByProc[proc]; have != nil {
			tids = append(have, tids...)
		}
		col.tidsByProc[proc] = tids
	}
}

func (col *refCollector) use(node int) {
	if w := node >> 6; w >= len(col.used) {
		col.used = append(col.used, make([]uint64, w+1-len(col.used))...)
	}
	col.used[node>>6] |= 1 << (node & 63)
}

func (rh *refScheduler) begin(col *refCollector, p *sim.Proc, relation string, pred core.Predicate) {
	h := rh.h
	d := h.Degraded
	if d == nil {
		d = &faultFree
	}
	h.nextQID++
	qid := h.nextQID
	*col = refCollector{
		h: h, rh: rh, d: d, p: p, topo: h.topo, epoch: h.epoch,
		qid: qid, relation: relation, pred: pred,
		res:  QueryResult{ID: qid, Pred: pred, Submitted: p.Now()},
		span: h.eng.StartSpan(),
	}
	col.mb = sim.NewMailboxLabel[any](h.eng, sim.Labelf("host.q%d", qid))
	rh.pending[qid] = col.mb
	p.SetQID(qid)
	p.Hold(h.params.InstrTime(h.costs.PlanInstr))
}

func (col *refCollector) startDeadline() {
	if dl := col.d.Policy.QueryDeadline; dl > 0 {
		col.deadline = col.p.Now() + sim.Time(dl)
	}
}

func (col *refCollector) finish(outcome Outcome, err error) QueryResult {
	h, res := col.h, &col.res
	delete(col.rh.pending, col.qid)
	col.p.SetQID(0)
	if outcome == OutcomeOK && col.retries > 0 {
		outcome = OutcomeRetried
	}
	res.Outcome = outcome
	res.Err = err
	res.Retries = col.retries
	for _, w := range col.used {
		res.ProcessorsUsed += bits.OnesCount64(w)
	}
	res.Completed = col.p.Now()
	h.QueriesRun++
	if col.span.Active() {
		detail := fmt.Sprintf("%d tuples, %d processors (%d aux)",
			res.Tuples, res.ProcessorsUsed, res.AuxProcessors)
		if outcome != OutcomeOK {
			detail += fmt.Sprintf("; %s, %d retries", outcome, res.Retries)
		}
		col.span.End(obs.NoNode, "query", fmt.Sprintf("q%d %s", col.qid, col.relation), col.qid, detail)
	}
	return *res
}

func (rh *refScheduler) schedule(p *sim.Proc, relation string, pred core.Predicate, kind plan.Access, agg *aggregate) QueryResult {
	h := rh.h
	placement := h.placement(relation)
	var col refCollector
	rh.begin(&col, p, relation, pred)
	col.kind, col.agg = kind, agg
	route := placement.Route(pred)
	if route.EntriesSearched > 0 {
		p.Hold(sim.Milliseconds(h.costs.CSms * float64(route.EntriesSearched)))
	}
	col.startDeadline()

	participants := route.Participants
	switch {
	case len(route.Aux) > 0 && agg != nil:
		participants = make([]int, placement.Processors())
		for i := range participants {
			participants[i] = i
		}
	case len(route.Aux) > 0:
		auxSpan := h.eng.StartSpan()
		col.res.AuxProcessors = len(route.Aux)
		col.aux = true
		if outcome, err := col.run(route.Aux); outcome != OutcomeOK {
			return col.finish(outcome, err)
		}
		col.aux = false
		col.fetchTIDs = h.BERDFetchByTID
		participants = make([]int, 0, len(col.tidsByProc))
		for proc, tids := range col.tidsByProc {
			if len(tids) > 0 {
				participants = append(participants, proc)
			}
		}
		if auxSpan.Active() {
			auxSpan.End(obs.NoNode, "query", fmt.Sprintf("q%d aux phase", col.qid), col.qid,
				fmt.Sprintf("%d aux nodes -> %d operators", len(route.Aux), len(participants)))
		}
	}

	opSpan := h.eng.StartSpan()
	col.share = h.Shared != nil && agg == nil && !col.fetchTIDs
	outcome, err := col.run(participants)
	if outcome == OutcomeOK && opSpan.Active() {
		opSpan.End(obs.NoNode, "query", fmt.Sprintf("q%d operator phase", col.qid), col.qid,
			fmt.Sprintf("%d participants", len(participants)))
	}
	return col.finish(outcome, err)
}

func (rh *refScheduler) join(p *sim.Proc, attr int, build, probe joinInput) QueryResult {
	h := rh.h
	buildPl, probePl := h.placement(build.relation), h.placement(probe.relation)
	slots := buildPl.Processors()
	if probePl.Processors() != slots {
		panic(fmt.Sprintf("exec: join inputs declustered over %d and %d processors",
			slots, probePl.Processors()))
	}
	var col refCollector
	rh.begin(&col, p, build.relation, core.Predicate{})
	col.startDeadline()
	local := Colocated(buildPl, probePl, attr)
	for phase, in := range [...]joinInput{build, probe} {
		for slot := 0; slot < slots; slot++ {
			target := physOf(col.topo, slot)
			col.use(target)
			netSend(p, h.net, nil, hw.Message{
				From: h.ID, To: target, Bytes: controlBytes,
				Payload: &joinScan{
					QueryID: col.qid, Relation: in.relation, Attr: attr, Phase: joinPhase(phase),
					Pred: in.pred, Local: local, Slots: slots, Topo: col.topo, Epoch: col.epoch,
					ReplyTo: h.ID,
				},
			})
		}
	}
	return col.finish(col.collectJoin(slots))
}

func (col *refCollector) collectJoin(slots int) (Outcome, error) {
	reported := make(map[int]bool, slots)
	for len(reported) < slots {
		if col.pastDeadline() {
			return OutcomeTimedOut, fmt.Errorf("exec: query deadline exceeded with %d join operators outstanding",
				slots-len(reported))
		}
		msg, ok := col.receive()
		if !ok {
			continue
		}
		switch r := msg.(type) {
		case opError:
			return OutcomeFailed, fmt.Errorf("exec: join scan on node %d failed: %s", r.Node, r.Msg)
		case joinDone:
			if reported[r.Node] {
				col.h.Orphans++
				continue
			}
			reported[r.Node] = true
			col.res.Tuples += r.Matches
		}
	}
	return OutcomeOK, nil
}
