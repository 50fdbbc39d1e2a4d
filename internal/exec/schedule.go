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
// accounting (stale replies are dropped by attempt id).
//
// It is a sim.Handler that runs the query in steps (HandleEvent): the
// plan delay, the catalog search, each send, each backoff and each wait
// for a reply end by scheduling the collector. The final step hands the
// result to the submitter inside the final event. Records come from the
// host's free list, each with its reply mailbox, which the host's
// dispatch feeds.
type collector struct {
	h    *Host
	d    *Degraded
	s    Submitter         // the query's submitter, which its final step reports to
	mb   *sim.Mailbox[any] // the query's replies
	next *collector        // free-list link

	step     colStep
	send     hw.Send
	waitErr  error    // error slot of its sends (hw.Waiter)
	deadline sim.Time // zero: no deadline
	// topo/epoch are the query's captured placement generation: slots
	// resolve to physical nodes through topo for every dispatch, including
	// retries that straddle a rebalance cutover.
	topo  []int
	epoch int

	qid       int64
	relation  string
	pred      core.Predicate
	kind      plan.Access
	placement core.Placement // a selection's relation, as Submit found it
	route     core.Route     // its localization
	aux       bool           // the current phase is BERD's auxiliary step
	share     bool           // selection operators ride shared-scan batches
	agg       *aggregate     // non-nil: the operators fold partial aggregates
	// homes collects BERD's auxiliary answer: a bitset of the home
	// processors of qualifying tuples. Under BERDFetchByTID, tidsByProc
	// also collects their TIDs per processor, copied into lists the record
	// keeps across queries, and fetchTIDs sends each operator its
	// processor's list to fetch by TID.
	homes      []uint64
	tidsByProc [][]int64
	fetchTIDs  bool
	phaseSpan  sim.Span // the current phase's
	parts      []int    // the operator phase's participants, when the route does not list them

	// A join's inputs, its slot count, and whether it runs node-locally.
	inputs [2]joinInput
	attr   int
	slots  int
	local  bool

	calls      []call     // the current phase's operators
	auxServed  []ServedOp // the aux lookups' attributions, until the operator phase sizes ServedBy
	served     []ServedOp // the list the result's ServedBy borrows, kept across queries
	held       []pooled   // the request records dispatched, which the collector holds until the query is over
	i          int        // the call being dispatched or retried; a join's next request
	remaining  int        // operators yet to report
	redispatch bool       // the retry of calls[i] is part of an operator-timeout redispatch
	failure    opError    // the error report whose retry is under way
	used       []uint64   // bitset of the physical nodes that did work
	reported   []uint64   // bitset of the nodes whose join operator reported
	retries    int
	res        QueryResult
	span       sim.Span // the query span, ended by finish
}

// colStep is where a collector resumes.
type colStep uint8

const (
	colPlanned     colStep = iota // the plan delay is over: localize
	colSearched                   // the catalog search is over: open the first phase
	colDispatch                   // dispatch calls[i], or collect once all are out
	colSending                    // calls[i-1]'s request is being sent
	colCollect                    // take replies until the phase completes
	colReply                      // a reply or the timeout ends the wait for one
	colRedispatch                 // an operator timeout: redispatch the outstanding calls from i on
	colRetry                      // redispatch calls[i]: back off first
	colResend                     // calls[i]'s backoff is over: send it again
	colResending                  // calls[i]'s redispatch is being sent
	colJoinPlanned                // a join's plan delay is over
	colJoinSend                   // send join request i, or collect once all are out
	colJoinSending                // join request i-1 is being sent
	colJoinCollect                // take join operators' reports until all are in
	colJoinReply                  // a report or the timeout ends the wait for one
	colDone                       // the result is final: report it to the submitter
)

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

// attempt aims the call's next attempt at an available replica and tags
// it, reporting false when no replica of the fragment is available.
func (col *collector) attempt(c *call) bool {
	target, ok := col.pickTarget(c)
	if !ok {
		return false
	}
	c.target = target
	col.h.nextAttempt++
	c.attempt = col.h.nextAttempt
	col.use(target)
	return true
}

// backoff is the wait before a call's nth redispatch: base·2^(nth-1),
// capped and jittered ±50% from the dedicated retry stream.
func (col *collector) backoff(nth int) sim.Duration {
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
	return d
}

// live returns the index of the call whose outstanding attempt is id, or
// -1 for a reply to a superseded attempt or a finished call.
func (col *collector) live(id int) int {
	for i := range col.calls {
		if c := &col.calls[i]; c.attempt == id && !c.done {
			return i
		}
	}
	return -1
}

// pastDeadline reports whether the query's deadline (if any) has passed.
func (col *collector) pastDeadline() bool {
	return col.deadline > 0 && col.h.eng.Now() >= col.deadline
}

// take takes the next reply, or waits for one, bounded by the operator
// timeout and the query deadline; ok is false when the wait timed out, and
// done false while the collector waits. With neither armed it waits with
// no timer.
func (col *collector) take() (msg any, ok, done bool) {
	wait := col.d.Policy.OpTimeout
	if col.deadline > 0 {
		if left := sim.Duration(col.deadline - col.h.eng.Now()); wait == 0 || left < wait {
			wait = left
		}
	}
	return col.mb.TakeTimeout(col, wait)
}

// QID reports the query the collector runs (hw.Waiter).
func (col *collector) QID() int64 { return col.qid }

// ErrSlot is the collector's error slot (hw.Waiter).
func (col *collector) ErrSlot() *error { return &col.waitErr }

// Name is the submitter's name, which the collector's spans and a panic
// report.
func (col *collector) Name() string { return col.s.Name() }

// HandleEvent runs the query from the event that ended its last wait to
// its next wait. A selection or an aggregate localizes its predicate,
// charges the catalog search, runs BERD's auxiliary phase when the route
// has one, then its operator phase: each phase dispatches one call per
// participant, then collects replies, redispatching a call after an
// operator error or every outstanding call after an operator timeout. A
// join sends its scans and collects its operators' match counts. The
// final step reports the result to the submitter, inside this event. It
// implements sim.Handler and is not meant to be called directly.
func (col *collector) HandleEvent() {
	h := col.h
	for {
		switch col.step {
		case colPlanned:
			col.route = col.placement.Route(col.pred)
			col.step = colSearched
			if n := col.route.EntriesSearched; n > 0 {
				// Catalog directory search: CS per examined entry
				// (Equation 1's search term).
				h.eng.ScheduleHandler(sim.Milliseconds(h.costs.CSms*float64(n)), col)
				return
			}
		case colSearched:
			col.startDeadline()
			col.openPhase()
		case colDispatch:
			if col.i == len(col.calls) {
				col.step = colCollect
				continue
			}
			c := &col.calls[col.i]
			if !col.attempt(c) {
				col.finish(OutcomeFailed, fmt.Errorf("exec: no available replica of node %d's fragment", c.primary))
				continue
			}
			col.i++
			if col.dispatch(c) {
				col.step = colSending
				return
			}
		case colSending:
			if !col.send.Step() {
				return
			}
			col.step = colDispatch
		case colCollect, colReply:
			if col.collect() {
				return
			}
		case colRedispatch:
			for col.i < len(col.calls) && col.calls[col.i].done {
				col.i++
			}
			if col.i == len(col.calls) {
				col.step = colCollect
				continue
			}
			// A silent primary is retried on its backup and vice versa.
			c := &col.calls[col.i]
			c.role = c.role.other()
			col.step = colRetry
		case colRetry:
			c := &col.calls[col.i]
			if c.retries >= col.d.Policy.MaxRetries {
				col.finish(OutcomeFailed, col.retryFailure(c))
				continue
			}
			c.retries++
			col.retries++
			col.step = colResend
			if d := col.backoff(c.retries); d > 0 {
				h.eng.ScheduleHandler(d, col)
				return
			}
		case colResend:
			c := &col.calls[col.i]
			if !col.attempt(c) {
				col.finish(OutcomeFailed, col.retryFailure(c))
				continue
			}
			col.step = colResending
			if col.dispatch(c) {
				return
			}
			col.retried()
		case colResending:
			if !col.send.Step() {
				return
			}
			col.retried()
		case colJoinPlanned:
			col.startDeadline()
			col.step = colJoinSend
		case colJoinSend:
			if col.i == 2*col.slots {
				col.remaining = col.slots
				col.step = colJoinCollect
				continue
			}
			phase, slot := col.i/col.slots, col.i%col.slots
			target := physOf(col.topo, slot)
			col.use(target)
			col.i++
			if !col.send.Start(h.net, col, nil, hw.Message{
				From: h.ID, To: target, Bytes: controlBytes,
				Payload: &joinScan{
					QueryID: col.qid, Relation: col.inputs[phase].relation, Attr: col.attr, Phase: joinPhase(phase),
					Pred: col.inputs[phase].pred, Local: col.local, Slots: col.slots, Topo: col.topo, Epoch: col.epoch,
					ReplyTo: h.ID,
				},
			}) {
				col.step = colJoinSending
				return
			}
		case colJoinSending:
			if !col.send.Step() {
				return
			}
			col.step = colJoinSend
		case colJoinCollect, colJoinReply:
			if col.collectJoin() {
				return
			}
		case colDone:
			col.complete()
			return
		}
	}
}

// openPhase starts the query's first phase from its route: BERD's
// auxiliary step when the route has one, else the operators. An aggregate
// needs no TIDs: it skips the auxiliary step by asking every processor.
func (col *collector) openPhase() {
	route := &col.route
	participants := route.Participants
	switch {
	case len(route.Aux) > 0 && col.agg != nil:
		participants = col.parts[:0]
		for i := range col.placement.Processors() {
			participants = append(participants, i)
		}
		col.parts = participants
	case len(route.Aux) > 0:
		// BERD two-step: consult the auxiliary relation first.
		col.phaseSpan = col.h.eng.StartSpan()
		col.res.AuxProcessors = len(route.Aux)
		col.aux = true
		col.run(route.Aux)
		return
	}
	col.operators(participants)
}

// operators opens the operator phase: one operator per participant,
// collected under the policy. It sizes the result's ServedBy once, for
// the aux lookups that answered and the operators, in the record's list.
func (col *collector) operators(participants []int) {
	if n := len(col.auxServed) + len(participants); n > 0 {
		col.served = append(slices.Grow(col.served[:0], n), col.auxServed...)
		col.res.ServedBy = col.served
	}
	col.phaseSpan = col.h.eng.StartSpan()
	col.share = col.h.Shared != nil && col.agg == nil && !col.fetchTIDs
	col.run(participants)
}

// run opens a phase of one call per primary slot: dispatch each, then
// collect. The record's lists grow, if they must, to the phase's size at
// once.
func (col *collector) run(primaries []int) {
	col.calls = slices.Grow(col.calls[:0], len(primaries))
	col.held = slices.Grow(col.held, len(primaries))
	for _, slot := range primaries {
		col.calls = append(col.calls, call{primary: slot, target: -1})
	}
	col.i, col.remaining, col.step = 0, len(primaries), colDispatch
}

// collect takes replies until the phase completes, the deadline passes, a
// call needs a redispatch, or the collector must wait for the next reply,
// which it reports.
func (col *collector) collect() (waits bool) {
	for {
		if col.step == colCollect {
			if col.remaining == 0 {
				col.closePhase()
				return false
			}
			if col.pastDeadline() {
				col.finish(OutcomeTimedOut, fmt.Errorf("exec: query deadline exceeded with %d operators outstanding", col.remaining))
				return false
			}
		}
		msg, ok, done := col.take()
		if !done {
			col.step = colReply
			return true
		}
		col.step = colCollect
		if !ok {
			if col.pastDeadline() {
				col.finish(OutcomeTimedOut, fmt.Errorf("exec: query deadline exceeded with %d operators outstanding", col.remaining))
				return false
			}
			// Operator timeout: redispatch everything outstanding.
			col.i, col.redispatch, col.step = 0, true, colRedispatch
			return false
		}
		switch r := msg.(type) {
		case opError:
			i := col.live(r.Attempt)
			if i < 0 {
				col.h.Orphans++ // stale attempt
				continue
			}
			if !r.Transient {
				// Fail-stop or routing error: this replica is not coming
				// back; go to the other one.
				col.calls[i].role = col.calls[i].role.other()
			}
			col.i, col.redispatch, col.failure, col.step = i, false, r, colRetry
			return false
		case *startOp: // a lone operator's answer, in its request record
			if c := col.answered(r.Attempt); c != nil {
				col.accept(c, r.Tuples, r.Value)
			}
			r.release()
		case opResult: // a shared-scan batch member's answer
			if c := col.answered(r.Attempt); c != nil {
				col.accept(c, r.Tuples, 0)
			}
		case *auxLookup: // an aux lookup's answer, in its request record
			if c := col.answered(r.Attempt); c != nil {
				col.auxServed = append(col.auxServed, ServedOp{
					Fragment: c.primary, Node: c.target, Backup: c.role == Backup, Aux: true,
				})
				col.mergeAux(r.byProc)
			}
			r.release()
		}
	}
}

// answered marks done the call whose live attempt a reply answers and
// returns it, or counts the reply an orphan and returns nil: a late reply
// for a superseded attempt or a finished call.
func (col *collector) answered(attempt int) *call {
	i := col.live(attempt)
	if i < 0 {
		col.h.Orphans++
		return nil
	}
	col.calls[i].done = true
	col.remaining--
	return &col.calls[i]
}

// retryFailure is why a call's redispatch failed: its budget is spent or
// no replica is available.
func (col *collector) retryFailure(c *call) error {
	if col.redispatch {
		return fmt.Errorf("exec: node %d's operator unresponsive after %d attempts", c.primary, c.retries+1)
	}
	return fmt.Errorf("exec: operator on node %d failed: %s", col.failure.Node, col.failure.Msg)
}

// retried goes on after calls[i]'s redispatch is out: with the next call
// of an operator-timeout redispatch, or with the replies.
func (col *collector) retried() {
	if col.redispatch {
		col.i++
		col.step = colRedispatch
		return
	}
	col.step = colCollect
}

// closePhase ends a phase all of whose calls completed: BERD's auxiliary
// phase opens the operator phase on the processors its answer names, and
// the operator phase finishes the query.
func (col *collector) closePhase() {
	if !col.aux {
		if col.phaseSpan.Active() {
			col.phaseSpan.End(obs.NoNode, "query", fmt.Sprintf("q%d operator phase", col.qid), col.qid,
				fmt.Sprintf("%d participants", len(col.calls)))
		}
		col.finish(OutcomeOK, nil)
		return
	}
	col.aux = false
	col.fetchTIDs = col.h.BERDFetchByTID
	participants := col.parts[:0]
	for proc := range len(col.homes) * 64 {
		if hasBit(col.homes, proc) {
			participants = append(participants, proc)
		}
	}
	col.parts = participants
	if col.phaseSpan.Active() {
		col.phaseSpan.End(obs.NoNode, "query", fmt.Sprintf("q%d aux phase", col.qid), col.qid,
			fmt.Sprintf("%d aux nodes -> %d operators", col.res.AuxProcessors, len(participants)))
	}
	col.operators(participants)
}

// dispatch starts the request for c's current (target, attempt, role)
// state — an auxiliary lookup, a shared-scan batch member, or a lone
// operator — and reports whether its send waits. A lone operator's or an
// aux lookup's request is a record from the host's free list, which the
// collector holds until the query is over. TID-fetch operators carry
// per-node TID lists, copied into the record, and are never batched; every
// other attempt rides a batch keyed by its replica role and epoch, and the
// attempt tag echoed in the batched reply lets collect drop stale batch
// replies exactly as for lone operators.
func (col *collector) dispatch(c *call) bool {
	h := col.h
	msg := hw.Message{From: h.ID, To: c.target, Bytes: controlBytes}
	switch {
	case col.aux:
		req := h.newAuxLookup()
		*req = auxLookup{QueryID: col.qid, Relation: col.relation, Pred: col.pred,
			ReplyTo: h.ID, Attempt: c.attempt, Role: c.role, Epoch: col.epoch,
			bufs: req.bufs, holds: req.holds}
		col.held = append(col.held, req)
		msg.Payload = req
	case col.share:
		h.Shared.enqueue(c.target, col.relation, col.pred, col.kind, col.qid, c.attempt, c.role, col.epoch)
		return false
	default:
		req := h.newStartOp()
		*req = startOp{QueryID: col.qid, Relation: col.relation, Pred: col.pred, ReplyTo: h.ID,
			Access: col.kind, Attempt: c.attempt, Role: c.role, Epoch: col.epoch, Agg: col.agg,
			TIDs: req.TIDs, bufs: req.bufs, holds: req.holds}
		if col.fetchTIDs {
			req.Access = plan.AccessTIDFetch
			req.TIDs = append(req.TIDs, col.tidsByProc[c.primary]...)
		}
		col.held = append(col.held, req)
		msg.Payload = req
	}
	return !col.send.Start(h.net, col, nil, msg)
}

// accept folds a matched selection reply into the query result.
func (col *collector) accept(c *call, tuples int, value int64) {
	if col.agg != nil && tuples > 0 {
		col.res.Value = col.agg.fold(col.res.Value, value, col.res.Tuples == 0)
	}
	col.res.Tuples += tuples
	col.res.ServedBy = append(col.res.ServedBy, ServedOp{
		Fragment: c.primary, Node: c.target, Backup: c.role == Backup, Tuples: tuples,
	})
}

// mergeAux folds one auxiliary answer into homes and, when the second
// step fetches by TID, appends its lists to tidsByProc's, which the
// collector record keeps across queries: the answer lives in its request
// record, which is reused once the query is over.
func (col *collector) mergeAux(byProc [][]int64) {
	for proc, tids := range byProc {
		if len(tids) > 0 {
			col.homes = setBit(col.homes, proc)
		}
	}
	if !col.h.BERDFetchByTID {
		return
	}
	if n, have := len(byProc), len(col.tidsByProc); n > have {
		col.tidsByProc = slices.Grow(col.tidsByProc, n-have)[:n]
		for proc := have; proc < n; proc++ {
			col.tidsByProc[proc] = col.tidsByProc[proc][:0]
		}
	}
	for proc, tids := range byProc {
		col.tidsByProc[proc] = append(col.tidsByProc[proc], tids...)
	}
}

// use marks the physical node as one that did work for the query.
func (col *collector) use(node int) { col.used = setBit(col.used, node) }

// setBit sets bit i of the bitset, growing it as needed: one word for
// the nodes of a 64-node machine.
func setBit(set []uint64, i int) []uint64 {
	if w := i >> 6; w >= len(set) {
		set = append(set, make([]uint64, w+1-len(set))...)
	}
	set[i>>6] |= 1 << (i & 63)
	return set
}

// hasBit reports whether bit i of the bitset is set.
func hasBit(set []uint64, i int) bool {
	return i>>6 < len(set) && set[i>>6]&(1<<(i&63)) != 0
}

// begin opens, in a collector from the host's free list, the lifecycle
// every query shape shares: a fresh qid, registration with the host's
// dispatch, the coordinator's query span, and the routing generation
// captured once — every dispatch of the query, including the BERD second
// step and any retry, uses the same topology and epoch, even if a
// rebalance cutover lands mid-query. It then charges the Query Manager's
// parse-and-plan delay (coordination delay, not CPU contention — see the
// Host doc comment), after which the collector resumes at step.
func (h *Host) begin(s Submitter, relation string, pred core.Predicate, step colStep) *collector {
	d := h.Degraded
	if d == nil {
		d = &faultFree
	}
	h.nextQID++
	qid := h.nextQID
	col := h.freeCols
	if col != nil {
		h.freeCols = col.next
	} else {
		col = &collector{mb: sim.NewMailbox[any](h.eng, "host.replies")}
	}
	*col = collector{
		h: h, d: d, s: s, mb: col.mb, step: step, topo: h.topo, epoch: h.epoch,
		qid: qid, relation: relation, pred: pred,
		homes: col.homes[:0], tidsByProc: col.tidsByProc[:0], parts: col.parts, held: col.held, auxServed: col.auxServed[:0],
		calls: col.calls[:0], used: col.used[:0], reported: col.reported[:0], served: col.served,
		res:  QueryResult{ID: qid, Pred: pred, Submitted: h.eng.Now()},
		span: h.eng.StartSpan(),
	}
	h.pending[qid] = col
	h.eng.ScheduleHandler(h.params.InstrTime(h.costs.PlanInstr), col)
	return col
}

// startDeadline starts the query's end-to-end budget (if the policy has
// one) once planning and localization are done.
func (col *collector) startDeadline() {
	if dl := col.d.Policy.QueryDeadline; dl > 0 {
		col.deadline = col.h.eng.Now() + sim.Time(dl)
	}
}

// finish closes the query with its outcome — OutcomeRetried when it
// succeeded only through redispatches — and unregisters it: statistics
// and the query span, whose detail appends the outcome and retry count
// only when the query did not finish OK on first attempts. The next step
// reports to the submitter.
func (col *collector) finish(outcome Outcome, err error) {
	h, res := col.h, &col.res
	delete(h.pending, col.qid)
	if outcome == OutcomeOK && col.retries > 0 {
		outcome = OutcomeRetried
	}
	res.Outcome = outcome
	res.Err = err
	res.Retries = col.retries
	if col.aux && len(col.auxServed) > 0 {
		res.ServedBy = col.auxServed // it ended in the aux phase
	}
	for _, w := range col.used {
		res.ProcessorsUsed += bits.OnesCount64(w)
	}
	res.Completed = h.eng.Now()
	h.QueriesRun++
	if col.span.Active() {
		detail := fmt.Sprintf("%d tuples, %d processors (%d aux)",
			res.Tuples, res.ProcessorsUsed, res.AuxProcessors)
		if outcome != OutcomeOK {
			detail += fmt.Sprintf("; %s, %d retries", outcome, res.Retries)
		}
		col.span.End(obs.NoNode, "query", fmt.Sprintf("q%d %s", col.qid, col.relation), col.qid, detail)
	}
	col.step = colDone
}

// complete returns the record to the free list, dropping any reply still
// queued for it and its holds on the request records it dispatched, and
// then reports the result to the submitter. The result's ServedBy borrows
// one of the record's lists, which a next query on the record rewrites
// no earlier than its operator phase, a later event: it is valid during
// the call.
func (col *collector) complete() {
	res, s := col.res, col.s
	for m, ok := col.mb.Take(); ok; m, ok = col.mb.Take() {
		release(m)
	}
	for _, r := range col.held {
		r.release()
	}
	clear(col.held)
	col.held = col.held[:0]
	h := col.h
	col.next, h.freeCols = h.freeCols, col
	s.QueryDone(res)
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
// and collect the results. Both phases run on one collector under the
// host's policy, so with Degraded set every wait is deadlined, operator
// failures and silences are retried with backoff, and requests reroute to
// chained backups when a replica is down. An aggregate's operators fold
// partials and never ride a shared-scan batch.
func (h *Host) schedule(s Submitter, relation string, pred core.Predicate, kind plan.Access, agg *aggregate) {
	placement := h.placement(relation)
	col := h.begin(s, relation, pred, colPlanned)
	col.kind, col.agg, col.placement = kind, agg, placement
}

// join is the Scheduler for one parallel hash join on attr: it starts a
// scan of every slot's fragment of the build input, then of the probe
// input, in that order — the split tables route their tuples to one join
// operator per slot — and collects every operator's match count under the
// policy deadline. Scans and operators resolve slots to physical nodes
// through the query's captured topology and epoch. They are not retried or
// rerouted: a scan's access error fails the query, and a silent node
// leaves it to the deadline.
func (h *Host) join(s Submitter, attr int, build, probe joinInput) {
	buildPl, probePl := h.placement(build.relation), h.placement(probe.relation)
	slots := buildPl.Processors()
	if probePl.Processors() != slots {
		panic(fmt.Sprintf("exec: join inputs declustered over %d and %d processors",
			slots, probePl.Processors()))
	}
	col := h.begin(s, build.relation, core.Predicate{}, colJoinPlanned)
	col.inputs, col.attr, col.slots = [2]joinInput{build, probe}, attr, slots
	col.local = Colocated(buildPl, probePl, attr)
}

// abandonJoin retires the join operators of a join the host gave up on,
// on every node.
func (h *Host) abandonJoin(qid int64) {
	for _, n := range h.Nodes {
		n.abandonJoin(qid)
	}
}

// joinInput is one side of a join: a relation and the predicate its scan
// applies.
type joinInput struct {
	relation string
	pred     core.Predicate
}

// collectJoin takes the match counts of the join's operators, one per
// slot, until all are in, the deadline passes, a scan fails, or the
// collector must wait for the next report, which it reports. An operator
// timeout only rechecks the deadline: the join has nothing to redispatch.
// A join that times out or fails retires its join operators on every
// node: a crashed scanner would leave them waiting for its end markers.
func (col *collector) collectJoin() (waits bool) {
	for {
		if col.step == colJoinCollect {
			if col.remaining == 0 {
				col.finish(OutcomeOK, nil)
				return false
			}
			if col.pastDeadline() {
				col.finish(OutcomeTimedOut, fmt.Errorf("exec: query deadline exceeded with %d join operators outstanding",
					col.remaining))
				col.h.abandonJoin(col.qid)
				return false
			}
		}
		msg, ok, done := col.take()
		if !done {
			col.step = colJoinReply
			return true
		}
		col.step = colJoinCollect
		if !ok {
			continue
		}
		switch r := msg.(type) {
		case opError:
			col.finish(OutcomeFailed, fmt.Errorf("exec: join scan on node %d failed: %s", r.Node, r.Msg))
			col.h.abandonJoin(col.qid)
			return false
		case joinDone:
			if hasBit(col.reported, r.Node) {
				col.h.Orphans++ // a second report from one node
				continue
			}
			col.reported = setBit(col.reported, r.Node)
			col.remaining--
			col.res.Tuples += r.Matches
		}
	}
}
