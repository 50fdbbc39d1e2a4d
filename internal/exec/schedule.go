package exec

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/sim"
)

// RetryPolicy tunes the scheduler's fault handling. All durations are
// simulated time. The zero policy arms nothing: waits are untimed, queries
// have no deadline, and the first operator error fails the query.
type RetryPolicy struct {
	// OpTimeout guards each wait for operator replies: when it expires,
	// every outstanding operator is redispatched (a lost reply and a dead
	// node look the same from the scheduler). Zero waits without a timer.
	OpTimeout sim.Duration
	// QueryDeadline is the end-to-end budget per query; past it the query
	// is abandoned with OutcomeTimedOut. Zero means no deadline.
	QueryDeadline sim.Duration
	// MaxRetries bounds redispatches per logical operator.
	MaxRetries int
	// BackoffBase and BackoffCap shape the exponential backoff between
	// redispatches: base·2^(attempt-1), capped, jittered ±50%.
	BackoffBase sim.Duration
	BackoffCap  sim.Duration
}

// DefaultRetryPolicy returns conservative defaults: operator timeouts well
// above any healthy response time at the paper's load levels, and a retry
// budget that tolerates a fault burst without retrying forever.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		OpTimeout:     2 * sim.Second,
		QueryDeadline: 20 * sim.Second,
		MaxRetries:    3,
		BackoffBase:   5 * sim.Millisecond,
		BackoffCap:    200 * sim.Millisecond,
	}
}

// Degraded configures the scheduler's fault handling.
type Degraded struct {
	Policy RetryPolicy
	// View is the scheduler's picture of node/disk health, kept current by
	// the fault injector. Nil means "assume everything available".
	View *fault.View
	// Backup maps a placement slot to the slot whose node holds its
	// chained-declustering replica, or -1 when the fragment has no replica.
	// slots is the slot count of the query's captured topology (0 when no
	// explicit topology is installed; implementations then use their
	// build-time node count).
	Backup func(slot, slots int) int
	// Jitter randomizes backoff delays (a dedicated rng stream, so enabling
	// retries perturbs no other stochastic decision in the run).
	Jitter *rng.Source
}

// faultFree is the configuration a host without Degraded schedules under:
// the zero policy, every node available, no replicas.
var faultFree Degraded

// available consults the health view, defaulting to available.
func (d *Degraded) available(node int) bool {
	return d.View == nil || d.View.Available(node)
}

// call tracks one logical operator (work against one primary fragment)
// through dispatch, retries, and replica rerouting.
type call struct {
	primary int  // placement slot whose fragment the work targets
	target  int  // physical node the live attempt was sent to
	attempt int  // query-unique id of the live attempt
	retries int  // redispatches so far
	role    Role // current replica preference
	done    bool
}

// collector is the Scheduler's state for one query in flight, whatever its
// plan shape: the query's captured routing, its result so far, and — for
// a selection or an aggregate — the logical operators of the current phase
// (BERD's auxiliary step, then the selection operators), driven to
// completion under the host's policy: per-wait timeouts, bounded jittered
// exponential backoff, chained-replica rerouting, and at-most-once
// accounting (stale or duplicated replies are dropped by attempt id).
type collector struct {
	h        *Host
	d        *Degraded
	p        *sim.Proc
	mb       *sim.Mailbox[any]
	deadline sim.Time // zero: no deadline
	// topo/epoch are the query's captured placement generation: slots
	// resolve to physical nodes through topo for every dispatch, including
	// retries that straddle a rebalance cutover.
	topo  []int
	epoch int

	qid      int64
	relation string
	pred     core.Predicate
	kind     plan.Access
	aux      bool       // the current phase is BERD's auxiliary step
	share    bool       // selection operators ride shared-scan batches
	agg      *aggregate // non-nil: the operators fold partial aggregates
	// tidsByProc collects BERD's auxiliary answer: the qualifying TIDs
	// per home processor (nil without an auxiliary step). fetchTIDs sends
	// each operator its processor's list to fetch by TID.
	tidsByProc [][]int64
	fetchTIDs  bool

	calls   []call   // the current phase's operators
	used    []uint64 // bitset of the physical nodes that did work
	retries int
	res     QueryResult
	span    sim.Span // the query span, ended by finish
}

// backupOf returns the slot whose node replicates c's fragment, or -1.
func (col *collector) backupOf(slot int) int {
	if col.d.Backup == nil {
		return -1
	}
	return col.d.Backup(slot, len(col.topo))
}

// pickTarget chooses the replica to dispatch to, honoring the call's
// current preference but falling back to whichever copy is available.
// After it returns true, c.role is the copy the chosen target holds.
func (col *collector) pickTarget(c *call) (int, bool) {
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

// send dispatches the call's next attempt, reporting false when no replica
// of the fragment is available.
func (col *collector) send(c *call) bool {
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

// retry backs off and redispatches, reporting false when the retry budget
// is exhausted or no replica is available.
func (col *collector) retry(c *call) bool {
	if c.retries >= col.d.Policy.MaxRetries {
		return false
	}
	c.retries++
	col.retries++
	col.backoff(c.retries)
	return col.send(c)
}

// backoff holds the coordinator for base·2^(nth-1), capped and jittered
// ±50% from the dedicated retry stream.
func (col *collector) backoff(nth int) {
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

// live returns the call whose outstanding attempt is id, or nil for a reply
// to a superseded attempt, a duplicate, or a finished call.
func (col *collector) live(id int) *call {
	for i := range col.calls {
		if c := &col.calls[i]; c.attempt == id && !c.done {
			return c
		}
	}
	return nil
}

// pastDeadline reports whether the query's deadline (if any) has passed.
func (col *collector) pastDeadline() bool {
	return col.deadline > 0 && col.p.Now() >= col.deadline
}

// receive waits for the next reply, bounded by the operator timeout and the
// query deadline; ok is false when the wait timed out. With neither armed
// it is a plain Get, which schedules no timer event.
func (col *collector) receive() (msg any, ok bool) {
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

// run dispatches one call per primary slot and collects replies until all
// complete, the deadline passes, or a call runs out of options.
func (col *collector) run(primaries []int) (Outcome, error) {
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
			// Operator timeout: redispatch everything outstanding, flipping
			// each call's replica preference — a silent primary is retried
			// on its backup and vice versa.
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
				col.h.Orphans++ // stale attempt or duplicated error
				continue
			}
			if !r.Transient {
				// Fail-stop or routing error: this replica is not coming
				// back; go to the other one.
				c.role = c.role.other()
			}
			if !col.retry(c) {
				return OutcomeFailed, fmt.Errorf("exec: operator on node %d failed: %s", r.Node, r.Msg)
			}
		case attemptTagged:
			c := col.live(r.attemptID())
			if c == nil {
				col.h.Orphans++ // late reply for a superseded attempt, or a duplicate
				continue
			}
			c.done = true
			remaining--
			col.accept(c, msg)
		}
	}
	return OutcomeOK, nil
}

// dispatch sends the request for c's current (target, attempt, role)
// state: an auxiliary lookup, a shared-scan batch member, or a lone
// operator. TID-fetch operators carry per-node TID lists and are never
// batched; every other attempt rides a batch keyed by its replica role and
// epoch, and the attempt tag echoed in the batched reply lets run drop
// stale batch replies exactly as for lone operators.
func (col *collector) dispatch(c *call) {
	h := col.h
	if col.aux {
		h.net.Send(col.p, nil, hw.Message{
			From: h.ID, To: c.target, Bytes: controlBytes,
			Payload: auxLookup{QueryID: col.qid, Relation: col.relation, Pred: col.pred,
				ReplyTo: h.ID, Attempt: c.attempt, Role: c.role, Epoch: col.epoch},
		})
		return
	}
	if col.share {
		h.Shared.enqueue(c.target, col.relation, col.pred, col.kind, col.qid, c.attempt, c.role, col.epoch)
		return
	}
	op := startOp{QueryID: col.qid, Relation: col.relation, Pred: col.pred, ReplyTo: h.ID,
		Access: col.kind, Attempt: c.attempt, Role: c.role, Epoch: col.epoch, Agg: col.agg}
	if col.fetchTIDs {
		op.Access = plan.AccessTIDFetch
		op.TIDs = col.tidsByProc[c.primary]
	}
	h.net.Send(col.p, nil, hw.Message{
		From: h.ID, To: c.target, Bytes: controlBytes, Payload: op,
	})
}

// accept folds a matched success reply into the query result.
func (col *collector) accept(c *call, msg any) {
	switch r := msg.(type) {
	case auxResult:
		col.res.ServedBy = append(col.res.ServedBy, ServedOp{
			Fragment: c.primary, Node: c.target, Backup: c.role == Backup, Aux: true,
		})
		col.mergeAux(r.TIDsByProc)
	case opResult:
		if col.agg != nil && r.Tuples > 0 {
			col.res.Value = col.agg.fold(col.res.Value, r.Value, col.res.Tuples == 0)
		}
		col.res.Tuples += r.Tuples
		col.res.ServedBy = append(col.res.ServedBy, ServedOp{
			Fragment: c.primary, Node: c.target, Backup: c.role == Backup, Tuples: r.Tuples,
		})
	}
}

// mergeAux folds one auxiliary answer into tidsByProc. The first answer is
// taken over, not copied, and so is each processor's first list: Lookup
// caps each list at its length, so appending a later answer for the same
// processor copies it first.
func (col *collector) mergeAux(byProc [][]int64) {
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

// use marks the physical node as one that did work for the query, in a
// bitset: one allocation for the nodes of a 64-node machine.
func (col *collector) use(node int) {
	if w := node >> 6; w >= len(col.used) {
		col.used = append(col.used, make([]uint64, w+1-len(col.used))...)
	}
	col.used[node>>6] |= 1 << (node & 63)
}

// begin opens, in col, the lifecycle every query shape shares: a fresh
// qid, the reply mailbox the host dispatcher feeds, the coordinator's query
// attribution and span, and the routing generation captured once — every
// dispatch of the query, including the BERD second step and any retry,
// uses the same topology and epoch, even if a rebalance cutover lands
// mid-query. It then charges the Query Manager's parse-and-plan delay
// (coordination delay, not CPU contention — see the Host doc comment).
// The caller owns col: a collector that never escapes its coordinator's
// frame costs no heap allocation per query.
func (h *Host) begin(col *collector, p *sim.Proc, relation string, pred core.Predicate) {
	d := h.Degraded
	if d == nil {
		d = &faultFree
	}
	h.nextQID++
	qid := h.nextQID
	*col = collector{
		h: h, d: d, p: p, topo: h.topo, epoch: h.epoch,
		qid: qid, relation: relation, pred: pred,
		res:  QueryResult{ID: qid, Pred: pred, Submitted: p.Now()},
		span: h.eng.StartSpan(),
	}
	col.mb = sim.NewMailboxLabel[any](h.eng, sim.Labelf("host.q%d", qid))
	h.pending[qid] = col.mb
	p.SetQID(qid)
	p.Hold(h.params.InstrTime(h.costs.PlanInstr))
}

// startDeadline starts the query's end-to-end budget (if the policy has
// one) once planning and localization are done.
func (col *collector) startDeadline() {
	if dl := col.d.Policy.QueryDeadline; dl > 0 {
		col.deadline = col.p.Now() + sim.Time(dl)
	}
}

// finish closes the query with its outcome — OutcomeRetried when it
// succeeded only through redispatches — and unregisters it: statistics
// and the query span, whose detail appends the outcome and retry count
// only when the query did not finish OK on first attempts.
func (col *collector) finish(outcome Outcome, err error) QueryResult {
	h, res := col.h, &col.res
	delete(h.pending, col.qid)
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

// placement looks up a registered relation's placement.
func (h *Host) placement(relation string) core.Placement {
	pl, ok := h.placements[relation]
	if !ok {
		panic(fmt.Sprintf("exec: unknown relation %q", relation))
	}
	return pl
}

// schedule is the Scheduler of Figure 7 for one selection, or for an
// aggregate when agg is set: plan and localize, run BERD's auxiliary step
// when the route has one, start (or batch) one operator per participant,
// and collect the results. It blocks for the query's full lifetime. Both
// phases run on one collector under the host's policy, so with Degraded
// set every wait is deadlined, operator failures and silences are retried
// with backoff, and requests reroute to chained backups when a replica is
// down. An aggregate's operators fold partials, which need no TIDs: it
// skips BERD's auxiliary step by asking every processor, and never rides a
// shared-scan batch.
func (h *Host) schedule(p *sim.Proc, relation string, pred core.Predicate, kind plan.Access, agg *aggregate) QueryResult {
	placement := h.placement(relation)
	var col collector
	h.begin(&col, p, relation, pred)
	col.kind, col.agg = kind, agg
	route := placement.Route(pred)
	if route.EntriesSearched > 0 {
		// Catalog directory search: CS per examined entry (Equation 1's
		// search term).
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
		// BERD two-step: consult the auxiliary relation first.
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

	// Scheduler: one operator per participant, collected under the policy.
	opSpan := h.eng.StartSpan()
	col.share = h.Shared != nil && agg == nil && !col.fetchTIDs
	outcome, err := col.run(participants)
	if outcome == OutcomeOK && opSpan.Active() {
		opSpan.End(obs.NoNode, "query", fmt.Sprintf("q%d operator phase", col.qid), col.qid,
			fmt.Sprintf("%d participants", len(participants)))
	}
	return col.finish(outcome, err)
}

// join is the Scheduler for one parallel hash join on attr: it starts a
// scan of every slot's fragment of the build input, then of the probe
// input, in that order — the split tables route their tuples to one join
// operator per slot — and collects every operator's match count under the
// policy deadline. Scans and operators resolve slots to physical nodes
// through the query's captured topology and epoch. They are not retried or
// rerouted: a scan's access error fails the query, and a silent node
// leaves it to the deadline.
func (h *Host) join(p *sim.Proc, attr int, build, probe joinInput) QueryResult {
	buildPl, probePl := h.placement(build.relation), h.placement(probe.relation)
	slots := buildPl.Processors()
	if probePl.Processors() != slots {
		panic(fmt.Sprintf("exec: join inputs declustered over %d and %d processors",
			slots, probePl.Processors()))
	}
	var col collector
	h.begin(&col, p, build.relation, core.Predicate{})
	col.startDeadline()
	local := Colocated(buildPl, probePl, attr)
	for phase, in := range [...]joinInput{build, probe} {
		for slot := 0; slot < slots; slot++ {
			target := physOf(col.topo, slot)
			col.use(target)
			h.net.Send(p, nil, hw.Message{
				From: h.ID, To: target, Bytes: controlBytes,
				Payload: joinScan{
					QueryID: col.qid, Relation: in.relation, Attr: attr, Phase: joinPhase(phase),
					Pred: in.pred, Local: local, Slots: slots, Topo: col.topo, Epoch: col.epoch,
					ReplyTo: h.ID,
				},
			})
		}
	}
	return col.finish(col.collectJoin(slots))
}

// joinInput is one side of a join: a relation and the predicate its scan
// applies.
type joinInput struct {
	relation string
	pred     core.Predicate
}

// collectJoin waits for the match counts of the join's operators, one per
// slot. An operator timeout only rechecks the deadline: the join has
// nothing to redispatch.
func (col *collector) collectJoin(slots int) (Outcome, error) {
	reported := make(map[int]bool, slots) // physical nodes whose operator reported
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
				col.h.Orphans++ // interconnect duplicate
				continue
			}
			reported[r.Node] = true
			col.res.Tuples += r.Matches
		}
	}
	return OutcomeOK, nil
}
