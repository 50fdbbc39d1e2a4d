package exec

import (
	"errors"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/plan"
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

// Role is which copy of a placement slot a node holds: the slot's primary
// fragment, or (chained declustering) the replica of its chain
// predecessor's slot.
type Role uint8

const (
	Primary Role = iota
	Backup
)

// other is the slot's other copy: a rerouted operator's next target.
func (r Role) other() Role { return 1 - r }

// String names the role's copy the way error messages print it.
func (r Role) String() string {
	if r == Backup {
		return "backup fragment"
	}
	return "fragment"
}

// Kind is the heat-map kind of the role's fragment.
func (r Role) Kind() obs.FragKind {
	if r == Backup {
		return obs.FragBackup
	}
	return obs.FragPrimary
}

// Holding is what a node holds of one relation in one role: the placement
// slot's fragment with its indexes, the slot's BERD auxiliary trees by
// secondary attribute (nil under other placements), and the heat
// accumulators accesses to them charge. The accumulators are nil when heat
// accounting is off, and increments on nil handles no-op, so heat-free runs
// execute the identical schedule.
type Holding struct {
	Frag    *storage.Fragment
	Aux     map[int]*storage.AuxFragment
	Heat    *obs.FragHeat
	AuxHeat *obs.FragHeat
}

// holdingKey addresses one holding in a generation.
type holdingKey struct {
	relation string
	role     Role
}

// generation is one placement generation's holdings on a node.
type generation map[holdingKey]*Holding

// Node is one operator node of Figure 7: CPU + disk + buffer pool + the
// local fragments of the declustered relations (and of any BERD auxiliary
// relations), plus the Operator Manager that serves incoming work: the
// consumer handler of the node's inbox, which starts an operator handler
// per request (Start).
type Node struct {
	ID     int
	CPU    *hw.CPU
	Disk   *hw.Disk
	Pool   *buffer.Pool
	params hw.Params
	costs  Costs
	net    *hw.Network
	eng    *sim.Engine

	joins map[int64]*joinWorker // live join operators by query
	// abandoned holds the joins the host gave up on whose operators the
	// node retired: a late message of theirs is dropped, not taken for a
	// new join's first contact.
	abandoned map[int64]struct{}
	freeOps   *operator   // operator records not in use
	ops       []*operator // every operator record the node has taken

	// Placement generations (elastic membership). gen numbers the serving
	// generation; previous keeps the one before it so queries planned
	// before a cutover still resolve their fragments (dual-read), and
	// staged collects the next one until CutoverPlacement. Without
	// elasticity only serving is ever filled.
	gen                       int
	serving, previous, staged generation

	// Crash state. down fail-silences the node; epoch increments on every
	// crash so operators started before it suppress their replies.
	down  bool
	epoch int

	// Stats.
	OpsExecuted   int64
	TuplesShipped int64
	OpErrors      int64

	// Shared-scan accounting (batched operators only): page accesses the
	// members' access methods requested vs. the distinct pages actually
	// replayed against the buffer pool.
	SharedPagesRequested int64
	SharedPagesRead      int64
}

// NewNode wires a node; its holdings are attached by the machine builder.
func NewNode(eng *sim.Engine, id int, params hw.Params, costs Costs, net *hw.Network,
	cpu *hw.CPU, disk *hw.Disk, pool *buffer.Pool) *Node {
	return &Node{
		ID: id, CPU: cpu, Disk: disk, Pool: pool,
		params: params, costs: costs, net: net, eng: eng,
	}
}

// Attach gives the node its holding of a relation in a role for placement
// generation gen: the serving generation, or the next one, which starts
// serving at the next CutoverPlacement. A generation holds at most one
// copy of a relation per role.
func (n *Node) Attach(gen int, relation string, role Role, h Holding) {
	var g *generation
	switch gen {
	case n.gen:
		g = &n.serving
	case n.gen + 1:
		g = &n.staged
	default:
		panic(fmt.Sprintf("exec: node %d cannot attach generation %d at generation %d", n.ID, gen, n.gen))
	}
	k := holdingKey{relation, role}
	if (*g)[k] != nil {
		panic(fmt.Sprintf("exec: node %d already holds a %s of %s in generation %d", n.ID, role, relation, gen))
	}
	if *g == nil {
		*g = make(generation)
	}
	(*g)[k] = &h
}

// CutoverPlacement installs the staged generation: the serving holdings
// become the previous ones (kept so queries planned before this instant
// still resolve), the staged holdings start serving, and the generation
// before that is dropped. A node with nothing staged (it holds no data in
// the new generation, e.g. a decommissioned member) cuts over to none. The
// machine layer calls this on every node at the same sim instant, so the
// cluster's generation moves atomically.
func (n *Node) CutoverPlacement(gen int) {
	if gen != n.gen+1 {
		panic(fmt.Sprintf("exec: node %d cutover to gen %d from gen %d", n.ID, gen, n.gen))
	}
	n.previous, n.serving, n.staged = n.serving, n.staged, nil
	n.gen = gen
}

// Resolve returns the node's holding of a relation in a role at a
// placement epoch: the serving generation's, or during the dual-read
// window after a cutover the previous generation's, for queries planned
// before it. It reports an error rather than panicking, so misrouted
// degraded-mode work surfaces as a query failure.
func (n *Node) Resolve(relation string, role Role, epoch int) (*Holding, error) {
	var g generation
	switch epoch {
	case n.gen:
		g = n.serving
	case n.gen - 1:
		g = n.previous
	default:
		return nil, fmt.Errorf("exec: node %d cannot serve placement epoch %d at generation %d",
			n.ID, epoch, n.gen)
	}
	if h := g[holdingKey{relation, role}]; h != nil {
		return h, nil
	}
	return nil, fmt.Errorf("exec: node %d has no %s of relation %q at epoch %d",
		n.ID, role, relation, epoch)
}

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

// ResetStats clears the node's operator counters (post warm-up).
func (n *Node) ResetStats() {
	n.OpsExecuted, n.TuplesShipped = 0, 0
	n.SharedPagesRequested, n.SharedPagesRead = 0, 0
}

// silenced reports whether an operator started in the crash epoch epoch
// must suppress its replies.
func (n *Node) silenced(epoch int) bool { return n.down || n.epoch != epoch }

// errorReply counts an operator failure and returns its report to the
// scheduler.
func (n *Node) errorReply(req int64, replyTo, attempt int, err error) hw.Message {
	n.OpErrors++
	return hw.Message{
		From: n.ID, To: replyTo, Bytes: controlBytes,
		Payload: opError{
			QueryID: req, Node: n.ID, Attempt: attempt,
			Transient: errors.Is(err, hw.ErrDiskIO), Msg: err.Error(),
		},
	}
}

// Start installs the node's Operator Manager: the consumer handler of the
// node's inbox, which starts one operator per incoming request, so
// concurrent queries contend for the node's CPU and disk exactly as on the
// real machine, and feeds join traffic to the query's join operator. It
// runs in the event that delivers a request.
func (n *Node) Start() {
	n.net.Inbox(n.ID).Consume((*opManager)(n))
}

// opManager is the node's inbox consumer (Node.Start).
type opManager Node

// HandleEvent starts or feeds an operator for every queued request.
func (o *opManager) HandleEvent() {
	n := (*Node)(o)
	inbox := n.net.Inbox(n.ID)
	for m, ok := inbox.Take(); ok; m, ok = inbox.Take() {
		switch req := m.Payload.(type) {
		case *startOp:
			op := n.newOperator()
			op.sel = req
			n.eng.ScheduleHandler(0, op)
		case *auxLookup:
			op := n.newOperator()
			op.aux = req
			n.eng.ScheduleHandler(0, op)
		case *batchOp:
			op := n.newOperator()
			op.batch = &batchPass{req: req}
			n.eng.ScheduleHandler(0, op)
		case *joinScan:
			op := n.newOperator()
			op.scan = req
			n.eng.ScheduleHandler(0, op)
		case joinBatch:
			n.routeJoinMsg(req.QueryID, req.ReplyTo, req.Scanners, m.Payload)
		case joinEnd:
			n.routeJoinMsg(req.QueryID, req.ReplyTo, req.Scanners, m.Payload)
		case nil:
			// Fragment of a multi-packet message; the final fragment
			// carries the payload.
		default:
			panic(fmt.Sprintf("exec: node %d: unexpected message %T", n.ID, req))
		}
	}
}

// Name names the Operator Manager in the run error of its panic.
func (o *opManager) Name() string { return fmt.Sprintf("node%d.opmgr", o.ID) }

// accessFor runs one access method against a resolved fragment, filling
// buf's lists.
func accessFor(frag *storage.Fragment, kind plan.Access, pred core.Predicate, tids []int64, buf *storage.Buffers) (storage.Access, error) {
	switch kind {
	case plan.AccessClustered:
		return frag.SearchClustered(pred.Lo, pred.Hi, buf)
	case plan.AccessNonClustered:
		return frag.SearchNonClustered(pred.Attr, pred.Lo, pred.Hi, buf)
	case plan.AccessTIDFetch:
		return frag.FetchTIDs(tids, buf)
	case plan.AccessSeqScan:
		return frag.Scan(pred.Attr, pred.Lo, pred.Hi, buf), nil
	default:
		return storage.Access{}, fmt.Errorf("exec: unknown access kind %v", kind)
	}
}
