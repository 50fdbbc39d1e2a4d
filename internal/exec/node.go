package exec

import (
	"errors"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Costs holds the execution-layer CPU constants that Table 2 does not give
// directly (derived parameters; DESIGN.md §2.6).
type Costs struct {
	// IndexPageInstr is the CPU cost of searching one index page (a binary
	// search, far cheaper than processing a 36-tuple data page).
	IndexPageInstr int
	// PlanInstr is the Query Manager's cost to parse and plan one query.
	PlanInstr int
	// CSms is the catalog directory-entry search cost, charged on the host
	// per entry the optimizer examines (the paper's CS).
	CSms float64
	// Per-tuple join costs: hashing a tuple through the split table,
	// inserting it into the build table, probing.
	JoinHashInstr  int
	JoinBuildInstr int
	JoinProbeInstr int
}

// DefaultCosts returns the defaults documented in DESIGN.md.
func DefaultCosts() Costs {
	return Costs{
		IndexPageInstr: 2000, PlanInstr: 1000, CSms: 0.003,
		JoinHashInstr: 50, JoinBuildInstr: 100, JoinProbeInstr: 100,
	}
}

// Node is one operator node of Figure 7: CPU + disk + buffer pool + the
// local fragments of the declustered relations (and of any BERD auxiliary
// relations), plus the Operator Manager process that serves incoming work.
type Node struct {
	ID     int
	CPU    *hw.CPU
	Disk   *hw.Disk
	Pool   *buffer.Pool
	params hw.Params
	costs  Costs
	net    *hw.Network
	eng    *sim.Engine

	frags map[string]*storage.Fragment
	aux   map[string]map[int]*storage.AuxFragment // relation -> attr -> aux
	joins map[int64]*joinWorker                   // live join operators by query

	// Chained-declustering replicas: this node's copies of its
	// predecessor's fragments, served when the scheduler reroutes.
	backups    map[string]*storage.Fragment
	auxBackups map[string]map[int]*storage.AuxFragment

	// Placement generations (elastic membership). gen is the serving
	// generation; the prev* maps hold the previous generation's layout so
	// queries planned before a cutover still resolve their fragments
	// (dual-read), and the staged* maps hold the next generation's layout
	// between Stage* calls and CutoverPlacement. All nil/zero — and
	// untouched — when elasticity is off.
	gen            int
	prevFrags      map[string]*storage.Fragment
	prevAux        map[string]map[int]*storage.AuxFragment
	prevBackups    map[string]*storage.Fragment
	prevAuxBackups map[string]map[int]*storage.AuxFragment
	stagedFrags    map[string]*storage.Fragment
	stagedAux      map[string]map[int]*storage.AuxFragment
	stagedBackups  map[string]*storage.Fragment
	stagedAuxBk    map[string]map[int]*storage.AuxFragment

	// Crash state. down fail-silences the node; epoch increments on every
	// crash so operators started before it suppress their replies.
	down  bool
	epoch int

	// Per-fragment heat accumulators, attached by the machine builder when
	// heat accounting is armed; a nil map (the default) keeps every lookup
	// returning nil handles, whose increments no-op.
	heat map[heatKey]*obs.FragHeat

	// Stats.
	OpsExecuted   int64
	TuplesShipped int64
	OpErrors      int64

	// Shared-scan accounting (batched operators only): page accesses the
	// members' access methods requested vs. the distinct pages actually
	// replayed against the buffer pool.
	SharedPagesRequested int64
	SharedPagesRead      int64

	// Registry handles (nil-safe when metrics are disabled).
	opsC    *obs.Counter
	tuplesC *obs.Counter
	pagesC  *obs.Counter
	errsC   *obs.Counter
}

// NewNode wires a node; fragments are attached by the machine builder.
func NewNode(eng *sim.Engine, id int, params hw.Params, costs Costs, net *hw.Network,
	cpu *hw.CPU, disk *hw.Disk, pool *buffer.Pool) *Node {
	n := &Node{
		ID: id, CPU: cpu, Disk: disk, Pool: pool,
		frags:      make(map[string]*storage.Fragment),
		aux:        make(map[string]map[int]*storage.AuxFragment),
		joins:      make(map[int64]*joinWorker),
		backups:    make(map[string]*storage.Fragment),
		auxBackups: make(map[string]map[int]*storage.AuxFragment),
		params:     params, costs: costs, net: net, eng: eng,
	}
	if reg := eng.Metrics(); reg != nil {
		n.opsC = reg.Counter(fmt.Sprintf("node%d.ops", id))
		n.tuplesC = reg.Counter(fmt.Sprintf("node%d.tuples_selected", id))
		n.pagesC = reg.Counter(fmt.Sprintf("node%d.pages_scanned", id))
		n.errsC = reg.Counter(fmt.Sprintf("node%d.op_errors", id))
	}
	return n
}

// AddFragment attaches the node's fragment of a relation.
func (n *Node) AddFragment(relation string, f *storage.Fragment) {
	if _, dup := n.frags[relation]; dup {
		panic(fmt.Sprintf("exec: node %d already has a fragment of %s", n.ID, relation))
	}
	n.frags[relation] = f
}

// AddAux attaches the node's fragment of a BERD auxiliary relation.
func (n *Node) AddAux(relation string, attr int, aux *storage.AuxFragment) {
	if n.aux[relation] == nil {
		n.aux[relation] = make(map[int]*storage.AuxFragment)
	}
	n.aux[relation][attr] = aux
}

// AddBackupFragment attaches this node's replica of its chain predecessor's
// fragment (chained declustering: node i's primary fragment is mirrored on
// node (i+1) mod p).
func (n *Node) AddBackupFragment(relation string, f *storage.Fragment) {
	if _, dup := n.backups[relation]; dup {
		panic(fmt.Sprintf("exec: node %d already has a backup fragment of %s", n.ID, relation))
	}
	n.backups[relation] = f
}

// AddBackupAux attaches this node's replica of its chain predecessor's
// auxiliary fragment.
func (n *Node) AddBackupAux(relation string, attr int, aux *storage.AuxFragment) {
	if n.auxBackups[relation] == nil {
		n.auxBackups[relation] = make(map[int]*storage.AuxFragment)
	}
	n.auxBackups[relation][attr] = aux
}

// StageFragment attaches the node's fragment of a relation in the
// placement generation being prepared; it starts serving at the next
// CutoverPlacement.
func (n *Node) StageFragment(relation string, f *storage.Fragment) {
	if n.stagedFrags == nil {
		n.stagedFrags = make(map[string]*storage.Fragment)
	}
	if _, dup := n.stagedFrags[relation]; dup {
		panic(fmt.Sprintf("exec: node %d already staged a fragment of %s", n.ID, relation))
	}
	n.stagedFrags[relation] = f
}

// StageAux attaches a staged auxiliary-relation fragment.
func (n *Node) StageAux(relation string, attr int, aux *storage.AuxFragment) {
	if n.stagedAux == nil {
		n.stagedAux = make(map[string]map[int]*storage.AuxFragment)
	}
	if n.stagedAux[relation] == nil {
		n.stagedAux[relation] = make(map[int]*storage.AuxFragment)
	}
	n.stagedAux[relation][attr] = aux
}

// StageBackupFragment attaches a staged chained-declustering replica.
func (n *Node) StageBackupFragment(relation string, f *storage.Fragment) {
	if n.stagedBackups == nil {
		n.stagedBackups = make(map[string]*storage.Fragment)
	}
	n.stagedBackups[relation] = f
}

// StageBackupAux attaches a staged replica of an auxiliary fragment.
func (n *Node) StageBackupAux(relation string, attr int, aux *storage.AuxFragment) {
	if n.stagedAuxBk == nil {
		n.stagedAuxBk = make(map[string]map[int]*storage.AuxFragment)
	}
	if n.stagedAuxBk[relation] == nil {
		n.stagedAuxBk[relation] = make(map[int]*storage.AuxFragment)
	}
	n.stagedAuxBk[relation][attr] = aux
}

// CutoverPlacement installs the staged generation: the serving layout
// becomes the previous one (kept so queries planned before this instant
// still resolve), the staged layout becomes serving, and the generation
// before that is dropped. Nodes with nothing staged (they hold no data in
// the new generation — e.g. a decommissioned member) cut over to empty
// maps. The machine layer calls this on every node at the same sim
// instant, so the cluster's generation moves atomically.
func (n *Node) CutoverPlacement(gen int) {
	if gen != n.gen+1 {
		panic(fmt.Sprintf("exec: node %d cutover to gen %d from gen %d", n.ID, gen, n.gen))
	}
	n.prevFrags, n.frags = n.frags, n.stagedFrags
	n.prevAux, n.aux = n.aux, n.stagedAux
	n.prevBackups, n.backups = n.backups, n.stagedBackups
	n.prevAuxBackups, n.auxBackups = n.auxBackups, n.stagedAuxBk
	if n.frags == nil {
		n.frags = make(map[string]*storage.Fragment)
	}
	if n.aux == nil {
		n.aux = make(map[string]map[int]*storage.AuxFragment)
	}
	if n.backups == nil {
		n.backups = make(map[string]*storage.Fragment)
	}
	if n.auxBackups == nil {
		n.auxBackups = make(map[string]map[int]*storage.AuxFragment)
	}
	n.stagedFrags, n.stagedAux, n.stagedBackups, n.stagedAuxBk = nil, nil, nil, nil
	n.gen = gen
}

// Gen reports the node's serving placement generation.
func (n *Node) Gen() int { return n.gen }

// heatKey addresses one of the node's fragment heat accumulators.
type heatKey struct {
	relation string
	kind     obs.FragKind
}

// AttachHeat hands the node the heat accumulator for one of its fragments
// (primary, chained-replica backup, or the relation's auxiliary trees).
// Called by the machine builder only when heat accounting is armed: with
// no attachments the hot-path lookups return nil and every increment
// no-ops, so disabled runs execute the identical schedule.
func (n *Node) AttachHeat(relation string, kind obs.FragKind, h *obs.FragHeat) {
	if n.heat == nil {
		n.heat = make(map[heatKey]*obs.FragHeat)
	}
	n.heat[heatKey{relation, kind}] = h
}

// heatFor resolves the accumulator a data-fragment access charges (nil
// when heat is off).
func (n *Node) heatFor(relation string, backup bool) *obs.FragHeat {
	if n.heat == nil {
		return nil
	}
	kind := obs.FragPrimary
	if backup {
		kind = obs.FragBackup
	}
	return n.heat[heatKey{relation, kind}]
}

// auxHeat resolves the accumulator for the relation's auxiliary trees on
// this node (primary and backup aux share it — both live on this disk).
func (n *Node) auxHeat(relation string) *obs.FragHeat {
	if n.heat == nil {
		return nil
	}
	return n.heat[heatKey{relation, obs.FragAux}]
}

// Fragment returns the node's fragment of a relation, or nil.
func (n *Node) Fragment(relation string) *storage.Fragment { return n.frags[relation] }

// BackupFragment returns the node's replica of its predecessor's fragment,
// or nil.
func (n *Node) BackupFragment(relation string) *storage.Fragment { return n.backups[relation] }

// Crash fail-silences the node (it satisfies fault.NodeTarget): the inbox
// drops traffic while down, and operators already in flight keep consuming
// CPU and disk but have their replies suppressed — to the rest of the
// machine the node simply goes quiet. Local data survives; this read-only
// workload has no dirty state to lose. Crashing a crashed node is a no-op.
func (n *Node) Crash() {
	if n.down {
		return
	}
	n.down = true
	n.epoch++
	n.net.Inbox(n.ID).SetDrop(true)
}

// Restart brings a crashed node back: the inbox accepts traffic again and
// new operators run normally. Messages that arrived during the outage are
// gone — senders are expected to time out and retry.
func (n *Node) Restart() {
	if !n.down {
		return
	}
	n.down = false
	n.net.Inbox(n.ID).SetDrop(false)
}

// Down reports whether the node is currently crashed.
func (n *Node) Down() bool { return n.down }

// ResetStats clears the node's operator counters (post warm-up). The
// registry counters are reset wholesale by the caller via Registry.Reset.
func (n *Node) ResetStats() {
	n.OpsExecuted, n.TuplesShipped = 0, 0
	n.SharedPagesRequested, n.SharedPagesRead = 0, 0
}

// fragmentFor resolves the primary or backup fragment for a request,
// reporting an error (rather than panicking) so misrouted degraded-mode
// work surfaces as a query failure. epoch selects the placement
// generation: the serving one, or — during the dual-read window after a
// rebalance cutover — the previous one for queries planned before it.
func (n *Node) fragmentFor(relation string, backup bool, epoch int) (*storage.Fragment, error) {
	var m map[string]*storage.Fragment
	switch {
	case epoch == n.gen:
		if backup {
			m = n.backups
		} else {
			m = n.frags
		}
	case epoch == n.gen-1:
		if backup {
			m = n.prevBackups
		} else {
			m = n.prevFrags
		}
	default:
		return nil, fmt.Errorf("exec: node %d cannot serve placement epoch %d at generation %d",
			n.ID, epoch, n.gen)
	}
	if f := m[relation]; f != nil {
		return f, nil
	}
	return nil, fmt.Errorf("exec: node %d has no %s of relation %q at epoch %d",
		n.ID, fragKind(backup), relation, epoch)
}

// auxFor resolves an auxiliary fragment the same way.
func (n *Node) auxFor(relation string, attr int, backup bool, epoch int) (*storage.AuxFragment, error) {
	var m map[string]map[int]*storage.AuxFragment
	switch {
	case epoch == n.gen:
		if backup {
			m = n.auxBackups
		} else {
			m = n.aux
		}
	case epoch == n.gen-1:
		if backup {
			m = n.prevAuxBackups
		} else {
			m = n.prevAux
		}
	default:
		return nil, fmt.Errorf("exec: node %d cannot serve placement epoch %d at generation %d",
			n.ID, epoch, n.gen)
	}
	if aux := m[relation][attr]; aux != nil {
		return aux, nil
	}
	return nil, fmt.Errorf("exec: node %d has no %s aux relation for %q attr %d at epoch %d",
		n.ID, fragKind(backup), relation, attr, epoch)
}

func fragKind(backup bool) string {
	if backup {
		return "backup fragment"
	}
	return "fragment"
}

// send delivers an operator's reply unless the node crashed after the
// operator started (epoch mismatch) or is down now: a crash fail-silences
// in-flight work.
func (n *Node) send(p *sim.Proc, epoch int, msg hw.Message) {
	if n.down || n.epoch != epoch {
		return
	}
	n.net.Send(p, n.CPU, msg)
}

// sendError reports an operator failure to the scheduler.
func (n *Node) sendError(p *sim.Proc, epoch int, req int64, replyTo, attempt int, err error) {
	n.OpErrors++
	n.errsC.Inc()
	n.send(p, epoch, hw.Message{
		From: n.ID, To: replyTo, Bytes: controlBytes,
		Payload: opError{
			QueryID: req, Node: n.ID, Attempt: attempt,
			Transient: errors.Is(err, hw.ErrDiskIO), Msg: err.Error(),
		},
	})
}

// Start launches the node's Operator Manager: a dispatcher that spawns one
// operator process per incoming request, so concurrent queries contend for
// the node's CPU and disk exactly as on the real machine.
func (n *Node) Start() {
	n.eng.Spawn(fmt.Sprintf("node%d.opmgr", n.ID), func(p *sim.Proc) {
		inbox := n.net.Inbox(n.ID)
		for {
			m := inbox.Get(p)
			switch req := m.Payload.(type) {
			case startOp:
				name := "node%d.op.q%d"
				if req.Agg != nil {
					name = "node%d.agg.q%d"
				}
				n.eng.Spawn(fmt.Sprintf(name, n.ID, req.QueryID),
					func(op *sim.Proc) { n.runSelect(op, req) })
			case batchOp:
				n.eng.Spawn(fmt.Sprintf("node%d.sharedop", n.ID),
					func(op *sim.Proc) { n.runSharedBatch(op, req) })
			case auxLookup:
				n.eng.Spawn(fmt.Sprintf("node%d.aux.q%d", n.ID, req.QueryID),
					func(op *sim.Proc) { n.runAuxLookup(op, req) })
			case joinScan:
				n.eng.Spawn(fmt.Sprintf("node%d.joinscan.q%d", n.ID, req.QueryID),
					func(op *sim.Proc) { n.runJoinScan(op, req) })
			case joinBatch:
				n.routeJoinMsg(req.QueryID, req.ReplyTo, req.Scanners, req)
			case joinEnd:
				n.routeJoinMsg(req.QueryID, req.ReplyTo, req.Scanners, req)
			case nil:
				// Fragment of a multi-packet message; the final fragment
				// carries the payload.
			default:
				panic(fmt.Sprintf("exec: node %d: unexpected message %T", n.ID, req))
			}
		}
	})
}

// runSelect executes one selection operator: index traversal and tuple
// fetches against the local (or backup) fragment, then ships the qualifying
// tuples to the scheduler — or, for an aggregate's operator, folds them
// into a partial (JoinProbeInstr per tuple) and ships a control message.
// The final result message doubles as the completion signal; an access
// error becomes an opError report instead of a process crash.
func (n *Node) runSelect(p *sim.Proc, req startOp) {
	p.SetQID(req.QueryID)
	epoch := n.epoch
	span := n.eng.StartSpan()
	h := n.heatFor(req.Relation, req.Backup)
	fspan := n.eng.StartSpan()
	acc, err := n.selectAccess(req)
	if err == nil {
		err = n.chargeAccess(p, acc, h)
	}
	if err != nil {
		n.sendError(p, epoch, req.QueryID, req.ReplyTo, req.Attempt, err)
		if span.Active() {
			span.End(n.ID, "op", "select "+req.Access.String()+" failed", req.QueryID, err.Error())
		}
		return
	}
	n.OpsExecuted++
	n.opsC.Inc()
	n.tuplesC.Add(int64(acc.N))

	bytes := controlBytes
	var value int64
	if req.Agg != nil {
		for i := 0; i < acc.N; i++ {
			n.CPU.Execute(p, n.costs.JoinProbeInstr) // per-tuple aggregation work
		}
		value = req.Agg.partial(acc)
	} else {
		n.TuplesShipped += int64(acc.N)
		bytes += n.params.TupleBytes(acc.N)
	}
	h.Account(len(acc.IndexPages), acc.NumDataPages(), int64(bytes), req.Backup)
	if fspan.Active() {
		kind := obs.FragPrimary
		if req.Backup {
			kind = obs.FragBackup
		}
		fspan.End(n.ID, "frag", obs.FragID{Relation: req.Relation, Kind: kind}.Label(),
			req.QueryID, fmt.Sprintf("%d pages, %d tuples", acc.PageCount(), acc.N))
	}
	n.send(p, epoch, hw.Message{
		From: n.ID, To: req.ReplyTo, Bytes: bytes,
		Payload: opResult{QueryID: req.QueryID, Node: n.ID, Tuples: acc.N,
			Value: value, Attempt: req.Attempt},
	})
	if span.Active() {
		span.End(n.ID, "op", "select "+req.Access.String(), req.QueryID,
			fmt.Sprintf("%d tuples", acc.N))
	}
}

// selectAccess resolves the fragment and runs the requested access method.
func (n *Node) selectAccess(req startOp) (storage.Access, error) {
	frag, err := n.fragmentFor(req.Relation, req.Backup, req.Epoch)
	if err != nil {
		return storage.Access{}, err
	}
	return accessFor(frag, req.Access, req.Pred, req.TIDs)
}

// accessFor runs one access method against a resolved fragment.
func accessFor(frag *storage.Fragment, kind AccessKind, pred core.Predicate, tids []int64) (storage.Access, error) {
	switch kind {
	case AccessClustered:
		return frag.SearchClustered(pred.Lo, pred.Hi)
	case AccessNonClustered:
		return frag.SearchNonClustered(pred.Attr, pred.Lo, pred.Hi)
	case AccessTIDFetch:
		return frag.FetchTIDs(tids)
	case AccessSeqScan:
		return frag.Scan(pred.Attr, pred.Lo, pred.Hi), nil
	default:
		return storage.Access{}, fmt.Errorf("exec: unknown access kind %v", kind)
	}
}

// runSharedBatch executes one predicate-grouped shared scan: every member's
// page trace is resolved up front (pure computation), the union of the
// traces is replayed against the buffer pool reading each distinct page
// once, and per-member qualification CPU is charged in full — the disk pass
// is shared, the processing is not. Members are answered in admission
// order. In degraded mode a batch may target a backup fragment
// or arrive misrouted after a repair, so resolution and page-read failures
// fan out as one opError per member (each tagged with that member's
// dispatch attempt) instead of panicking; the collectors then retry or
// reroute the members individually.
func (n *Node) runSharedBatch(p *sim.Proc, req batchOp) {
	epoch := n.epoch
	span := n.eng.StartSpan()
	h := n.heatFor(req.Relation, req.Backup)
	fail := func(err error) {
		for _, m := range req.Members {
			n.sendError(p, epoch, m.QID, req.ReplyTo, m.Attempt, err)
		}
		if span.Active() {
			span.End(n.ID, "op", "shared select "+req.Access.String()+" failed", 0, err.Error())
		}
	}
	frag, err := n.fragmentFor(req.Relation, req.Backup, req.Epoch)
	if err != nil {
		fail(err)
		return
	}
	accs := make([]storage.Access, len(req.Members))
	for i, m := range req.Members {
		if accs[i], err = accessFor(frag, req.Access, m.Pred, nil); err != nil {
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
				if err := n.Pool.ReadHeat(p, pg, h); err != nil {
					fail(err)
					return
				}
			}
			n.CPU.Execute(p, n.costs.IndexPageInstr)
		}
		for j := 0; j < acc.NumDataPages(); j++ {
			pg := acc.DataPage(j)
			n.SharedPagesRequested++
			if !seen[pg] {
				seen[pg] = true
				dataPages++
				n.SharedPagesRead++
				if err := n.Pool.ReadHeat(p, pg, h); err != nil {
					fail(err)
					return
				}
			}
			n.CPU.Execute(p, n.params.ReadPageInstr)
		}
	}
	n.pagesC.Add(int64(idxPages + dataPages))

	var batchBytes int64
	for i, m := range req.Members {
		tuples := accs[i].N
		n.OpsExecuted++
		n.TuplesShipped += int64(tuples)
		n.opsC.Inc()
		n.tuplesC.Add(int64(tuples))
		bytes := n.params.TupleBytes(tuples) + controlBytes
		batchBytes += int64(bytes)
		n.send(p, epoch, hw.Message{
			From: n.ID, To: req.ReplyTo, Bytes: bytes,
			Payload: opResult{QueryID: m.QID, Node: n.ID, Tuples: tuples, Attempt: m.Attempt},
		})
	}
	h.Account(idxPages, dataPages, batchBytes, req.Backup)
	if span.Active() {
		span.End(n.ID, "op", "shared select "+req.Access.String(), 0,
			fmt.Sprintf("%d members, %d pages", len(req.Members), idxPages+dataPages))
	}
}

// runAuxLookup executes BERD's first step: search the local fragment of the
// auxiliary relation and return the home processors of qualifying tuples.
func (n *Node) runAuxLookup(p *sim.Proc, req auxLookup) {
	p.SetQID(req.QueryID)
	epoch := n.epoch
	span := n.eng.StartSpan()
	aux, err := n.auxFor(req.Relation, req.Pred.Attr, req.Backup, req.Epoch)
	h := n.auxHeat(req.Relation)
	fspan := n.eng.StartSpan()
	var byProc map[int][]int64
	var entries int
	var pages []int
	if err == nil {
		byProc, entries, pages = aux.Lookup(req.Pred.Lo, req.Pred.Hi)
		for _, pg := range pages {
			if err = n.Pool.ReadHeat(p, pg, h); err != nil {
				break
			}
			n.CPU.Execute(p, n.costs.IndexPageInstr)
		}
	}
	if err != nil {
		n.sendError(p, epoch, req.QueryID, req.ReplyTo, req.Attempt, err)
		if span.Active() {
			span.End(n.ID, "op", "aux-lookup failed", req.QueryID, err.Error())
		}
		return
	}
	n.pagesC.Add(int64(len(pages)))
	n.OpsExecuted++
	n.opsC.Inc()
	bytes := entries*auxEntryBytes + controlBytes
	h.Account(len(pages), 0, int64(bytes), req.Backup)
	if fspan.Active() {
		fspan.End(n.ID, "frag", obs.FragID{Relation: req.Relation, Kind: obs.FragAux}.Label(),
			req.QueryID, fmt.Sprintf("%d pages, %d tuples", len(pages), 0))
	}
	n.send(p, epoch, hw.Message{
		From: n.ID, To: req.ReplyTo, Bytes: bytes,
		Payload: auxResult{QueryID: req.QueryID, Node: n.ID, TIDsByProc: byProc,
			Entries: entries, Attempt: req.Attempt},
	})
	if span.Active() {
		span.End(n.ID, "op", "aux-lookup", req.QueryID,
			fmt.Sprintf("%d entries", entries))
	}
}

// chargeAccess replays an access-method page trace against the node's
// buffer pool, disk and CPU: index pages cost IndexPageInstr each, data
// pages cost the Table 2 per-page processing (14600 instructions). It stops
// at the first failed page read and reports it. h attributes every page
// request to the fragment being read (nil = heat off, no accounting).
func (n *Node) chargeAccess(p *sim.Proc, acc storage.Access, h *obs.FragHeat) error {
	for _, pg := range acc.IndexPages {
		if err := n.Pool.ReadHeat(p, pg, h); err != nil {
			return err
		}
		n.CPU.Execute(p, n.costs.IndexPageInstr)
	}
	for i := 0; i < acc.NumDataPages(); i++ {
		if err := n.Pool.ReadHeat(p, acc.DataPage(i), h); err != nil {
			return err
		}
		n.CPU.Execute(p, n.params.ReadPageInstr)
	}
	n.pagesC.Add(int64(acc.PageCount()))
	return nil
}
