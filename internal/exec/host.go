package exec

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/sim"
)

// Outcome classifies how a query ended. The zero value is OutcomeOK,
// the outcome of every query on a fault-free machine.
type Outcome int

const (
	// OutcomeOK: completed on the first attempt of every operator.
	OutcomeOK Outcome = iota
	// OutcomeRetried: completed, but at least one operator was retried or
	// rerouted to a backup replica.
	OutcomeRetried
	// OutcomeTimedOut: abandoned at its end-to-end deadline.
	OutcomeTimedOut
	// OutcomeFailed: abandoned because an operator exhausted its retry
	// budget or no replica of a fragment was available.
	OutcomeFailed
)

func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeRetried:
		return "retried"
	case OutcomeTimedOut:
		return "timed-out"
	case OutcomeFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// Succeeded reports whether the query produced its full result.
func (o Outcome) Succeeded() bool { return o == OutcomeOK || o == OutcomeRetried }

// Outcomes tallies queries by outcome. All zeroes except OK on a
// fault-free machine.
type Outcomes struct {
	OK       int64 `json:"ok"`
	Retried  int64 `json:"retried"`
	TimedOut int64 `json:"timed_out"`
	Failed   int64 `json:"failed"`
}

// Count tallies one query's outcome.
func (o *Outcomes) Count(out Outcome) {
	switch out {
	case OutcomeOK:
		o.OK++
	case OutcomeRetried:
		o.Retried++
	case OutcomeTimedOut:
		o.TimedOut++
	case OutcomeFailed:
		o.Failed++
	}
}

// Add accumulates another tally into o.
func (o *Outcomes) Add(p Outcomes) {
	o.OK += p.OK
	o.Retried += p.Retried
	o.TimedOut += p.TimedOut
	o.Failed += p.Failed
}

// Succeeded reports the queries that produced full results.
func (o Outcomes) Succeeded() int64 { return o.OK + o.Retried }

// Total reports all completions, including abandoned queries.
func (o Outcomes) Total() int64 { return o.OK + o.Retried + o.TimedOut + o.Failed }

// String renders the tally in the fixed order the CI smoke greps for.
func (o Outcomes) String() string {
	return fmt.Sprintf("ok=%d retried=%d timed_out=%d failed=%d",
		o.OK, o.Retried, o.TimedOut, o.Failed)
}

// ServedOp records which node actually served one operator of a query. On
// a fault-free machine the serving node is the fragment's primary home;
// under degraded-mode execution an operator may be rerouted to the chained
// backup, and this attribution is what keeps plan explain output and
// querytrace -frags in agreement.
type ServedOp struct {
	Fragment int  // placement slot whose (primary) fragment the operator targeted
	Node     int  // physical node that actually served the operator
	Backup   bool // true when the chained-replica backup served it
	Aux      bool // BERD auxiliary lookup (step one) rather than a selection
	Tuples   int  // tuples this operator returned (0 for aux lookups)
}

func (s ServedOp) String() string {
	role := "select"
	if s.Aux {
		role = "aux"
	}
	where := fmt.Sprintf("n%d", s.Node)
	if s.Backup {
		where += " (backup)"
	}
	return fmt.Sprintf("%s frag@n%d served by %s: %d tuples", role, s.Fragment, where, s.Tuples)
}

// QueryResult summarizes one executed query.
type QueryResult struct {
	ID             int64
	Pred           core.Predicate
	Tuples         int
	ProcessorsUsed int // distinct processors that did work (aux + operators)
	AuxProcessors  int // BERD first-step processors among them
	Submitted      sim.Time
	Completed      sim.Time

	// ServedBy attributes each operator to the node that served it, in
	// completion order. Under chained-replica rerouting — or mid-migration,
	// when a slot's fragments have moved to a different physical node — the
	// serving node can differ from the slot number.
	ServedBy []ServedOp

	// Value is the aggregate's value for Aggregate-rooted plans submitted
	// through Submit (zero otherwise).
	Value int64

	// Fault accounting (zero values when every operator answered on its
	// first attempt).
	Outcome Outcome
	Retries int   // operator redispatches (retries + reroutes)
	Err     error // why the query timed out or failed
}

// ResponseMS reports the query's response time in milliseconds.
func (r QueryResult) ResponseMS() float64 {
	return sim.Duration(r.Completed - r.Submitted).Milliseconds()
}

// Host is the scheduler node of Figure 7: it runs the Query Manager (parse,
// plan, localize through the relation's placement, which holds the
// catalog's partitioning metadata) and the Scheduler (start operators on the
// participating nodes, collect results, commit). Following the paper's
// model — only operator nodes carry CPUs; the Query Manager, Scheduler and
// System Catalog are stand-alone coordination modules — the host's work is
// pure delay on each query's collector rather than contention on
// a shared processor. Per-participant costs (message handling, operator
// start-up) are charged where they belong: on the operator nodes.
type Host struct {
	ID     int // network endpoint (by convention: last)
	net    *hw.Network
	eng    *sim.Engine
	params hw.Params
	costs  Costs

	placements map[string]core.Placement

	// Elastic-membership routing state (zero/nil when elasticity is off).
	// Placements route predicates to slots [0, n); topo maps each slot to
	// the physical node currently holding its fragments (nil = identity),
	// and epoch is the placement generation queries are planned against.
	// Both are replaced atomically at a rebalance cutover; in-flight
	// queries keep the topology and epoch they captured at submit, which
	// nodes honour through the dual-read window.
	topo  []int
	epoch int

	// BERDFetchByTID makes BERD's second step fetch tuples by TID instead
	// of re-executing the predicate through each identified processor's
	// local index (the default, per Section 2: the system "directs the
	// query to these processors"). TID fetching is kept as an ablation: it
	// saves the index probe but costs one random I/O per tuple.
	BERDFetchByTID bool

	// Degraded arms the scheduler's fault handling: per-query deadlines,
	// per-operator timeouts, bounded jittered retry, and chained-replica
	// rerouting. Nil (the default) schedules under the zero policy — untimed
	// waits, and the first operator error fails the query — and makes a
	// reply for an unknown query a panic rather than an orphan.
	Degraded *Degraded

	// Shared is the shared-scan manager (nil = sharing off, the default):
	// when armed via EnableSharing, concurrent selections targeting the
	// same fragment within the batching window are predicate-grouped into
	// one disk pass.
	Shared *SharedScans

	nextQID     int64
	nextAttempt int
	pending     map[int64]*collector // queries in flight
	freeCols    *collector           // collector records not in use
	freeSel     []*startOp           // request records not in use
	freeAux     []*auxLookup
	sels        []*startOp               // every selection request record the host has taken
	aggs        map[aggregate]*aggregate // the aggregates requests refer to, one of each

	// Stats.
	QueriesRun int64
	Orphans    int64 // late, duplicate or superseded replies
}

// NewHost wires the scheduler node. Relations are attached with
// AddRelation.
func NewHost(eng *sim.Engine, id int, params hw.Params, net *hw.Network, costs Costs) *Host {
	return &Host{
		ID: id, net: net, eng: eng,
		params: params, costs: costs,
		placements: make(map[string]core.Placement),
		pending:    make(map[int64]*collector),
	}
}

// AddRelation registers a declustered relation with the Query Manager.
func (h *Host) AddRelation(name string, pl core.Placement) {
	if _, dup := h.placements[name]; dup {
		panic(fmt.Sprintf("exec: relation %q already registered", name))
	}
	h.placements[name] = pl
}

// SetPlacement replaces a relation's placement at a rebalance cutover.
// Unlike AddRelation it requires the relation to exist already.
func (h *Host) SetPlacement(name string, pl core.Placement) {
	if _, ok := h.placements[name]; !ok {
		panic(fmt.Sprintf("exec: SetPlacement of unregistered relation %q", name))
	}
	h.placements[name] = pl
}

// SetTopology installs the slot→physical routing and placement generation
// of a freshly cut-over membership. topo[i] is the physical node serving
// slot i; epoch must advance by exactly one generation per cutover.
func (h *Host) SetTopology(topo []int, epoch int) {
	if epoch != h.epoch+1 {
		panic(fmt.Sprintf("exec: SetTopology to epoch %d from %d", epoch, h.epoch))
	}
	h.topo = topo
	h.epoch = epoch
}

// physOf maps a placement slot to the physical node serving it.
func physOf(topo []int, slot int) int {
	if topo == nil {
		return slot
	}
	return topo[slot]
}

// Start installs the host's message dispatcher, which demultiplexes
// operator and auxiliary results to the collector of the owning query. The
// dispatcher is the consumer handler of the host's inbox: it forwards each
// reply in the event that delivers it, with no process.
func (h *Host) Start() {
	h.net.Inbox(h.ID).Consume((*hostDispatch)(h))
}

// hostDispatch is the host's inbox consumer (Host.Start).
type hostDispatch Host

// HandleEvent forwards every queued reply to its query's collector.
func (d *hostDispatch) HandleEvent() {
	h := (*Host)(d)
	inbox := h.net.Inbox(h.ID)
	for m, ok := inbox.Take(); ok; m, ok = inbox.Take() {
		h.deliver(m.Payload)
	}
}

// deliver forwards one reply to its query's collector; an orphan releases
// the request record it came back in.
func (h *Host) deliver(payload any) {
	var qid int64
	switch r := payload.(type) {
	case *startOp:
		qid = r.QueryID
	case *auxLookup:
		qid = r.QueryID
	case opResult:
		qid = r.QueryID
	case opError:
		qid = r.QueryID
	case joinDone:
		qid = r.QueryID
	case nil:
		return // multi-packet fragment; payload rides the last one
	default:
		panic(fmt.Sprintf("exec: host: unexpected message %T", r))
	}
	col, ok := h.pending[qid]
	if !ok {
		if h.Degraded != nil {
			// Late or duplicated reply for a query the scheduler already
			// finished (or abandoned) — expected under timeouts, crashes
			// and message duplication.
			h.Orphans++
			release(payload)
			return
		}
		panic(fmt.Sprintf("exec: host: result for unknown query %d", qid))
	}
	col.mb.Put(payload)
}

// Name names the dispatcher in the run error of its panic.
func (d *hostDispatch) Name() string { return "host.dispatch" }

// AccessChooser maps a predicate to the access method its operators use;
// the workload defines it (Section 6: non-clustered index on A, clustered
// index on B).
type AccessChooser func(pred core.Predicate) plan.Access

// aggregateOf returns the host's one descriptor of fn over attr, which
// every request for it refers to.
func (h *Host) aggregateOf(fn plan.AggFn, attr int) *aggregate {
	k := aggregate{fn: fn, attr: attr}
	a := h.aggs[k]
	if a == nil {
		if h.aggs == nil {
			h.aggs = make(map[aggregate]*aggregate)
		}
		a = &aggregate{fn: fn, attr: attr}
		h.aggs[k] = a
	}
	return a
}

// fullDomain is the predicate a bare (predicate-free) Scan leaf executes:
// every tuple of the relation qualifies.
func fullDomain() core.Predicate {
	return core.Predicate{Attr: 0, Lo: math.MinInt64, Hi: math.MaxInt64}
}

// resolveSelection lowers a selection subtree to (relation, predicate,
// access kind), applying the full-domain predicate to bare scans.
func (h *Host) resolveSelection(n *plan.Node) (string, core.Predicate, plan.Access) {
	sel, err := plan.CompileSelection(n)
	if err != nil {
		panic(fmt.Sprintf("exec: %v", err))
	}
	pred := sel.Pred
	if !sel.HasPred {
		pred = fullDomain()
	}
	return sel.Relation, pred, sel.Access
}

// Submit executes a declarative plan tree to completion for the calling
// process (a terminal) and returns the query's statistics. It is the one
// way to run a query: every plan shape runs through the scheduler's query
// lifecycle and collector, a handler; the process parks once, until the
// collector's final step resumes it. Selection trees (Filter chains over a
// Scan/IndexScan leaf) run one operator per participant — including
// shared-scan batching when the manager is armed. An Aggregate root runs
// the same operators folding partial aggregates (Tuples reports matched
// tuples, Value the aggregate). A Join root runs the parallel hash join
// (Tuples reports the match count). Invalid or non-executable plans panic:
// a plan error is a programming error, not a runtime fault.
func (h *Host) Submit(p *sim.Proc, n *plan.Node) QueryResult {
	if err := n.Validate(); err != nil {
		panic(fmt.Sprintf("exec: invalid plan: %v", err))
	}
	var col *collector
	switch n.Kind {
	case plan.KindAggregate:
		relation, pred, kind := h.resolveSelection(n.Inputs[0])
		col = h.schedule(p, relation, pred, kind, h.aggregateOf(n.Fn, n.Attr))
	case plan.KindJoin:
		buildRel, buildPred, _ := h.resolveSelection(n.Inputs[0])
		probeRel, probePred, _ := h.resolveSelection(n.Inputs[1])
		col = h.join(p, n.Attr, joinInput{buildRel, buildPred}, joinInput{probeRel, probePred})
	default:
		relation, pred, kind := h.resolveSelection(n)
		col = h.schedule(p, relation, pred, kind, nil)
	}
	return col.wait()
}
