// Package exec implements query execution on the simulated Gamma machine:
// the Operator Manager running selections on each node, the Query Manager
// and Scheduler coordinating multi-site queries on the host, and BERD's
// two-step auxiliary-relation protocol. It is the layer that turns a
// declustering strategy's routing decision into simulated CPU, disk and
// network activity.
package exec

import (
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/storage"
)

// controlBytes is the size of a control message (start, done); the paper's
// Table 2 prices a 100-byte message.
const controlBytes = 100

// auxEntryBytes is the wire size of one auxiliary-relation result entry
// (value + TID + processor).
const auxEntryBytes = 16

// startOp asks a node's Operator Manager to run a selection fragment. It
// is a record from the host's free list and travels by pointer: the
// operator reads the request in place, searches into the record's lists,
// writes its answer into the reply fields, and sends the record back as
// its reply.
type startOp struct {
	QueryID  int64
	Relation string
	Pred     core.Predicate
	Access   plan.Access
	TIDs     []int64 // plan.AccessTIDFetch only: the primary fragment's qualifying TIDs
	ReplyTo  int     // scheduler node
	// Attempt tags this dispatch for at-most-once accounting under retries:
	// the scheduler's collector matches replies to their live attempt by
	// it.
	Attempt int
	// Role directs the operator at the node's primary fragment or its
	// chained-declustering backup.
	Role Role
	// Epoch is the placement generation the query was planned against
	// (0 when elasticity is off). During a rebalance a node serves the
	// previous generation's fragments to queries submitted before the
	// cutover and the new generation's to queries submitted after it.
	Epoch int
	// Agg, when set, makes the operator an aggregate's: it folds its
	// qualifying tuples into a partial and ships only that.
	Agg *aggregate

	// The reply: the node that answered, its qualifying tuples and, for an
	// aggregate, their partial.
	Node   int
	Tuples int
	Value  int64

	bufs storage.Buffers // the page and slot lists of the operator's search
	holds
}

// opResult carries a shared-scan batch member's qualifying tuples back to
// the scheduler; its arrival also serves as the member's completion
// signal. A lone operator replies with its request record instead.
type opResult struct {
	QueryID int64
	Node    int
	Tuples  int
	Attempt int // echoes batchMember.Attempt
}

// holds counts what holds a request record from a host's free list: the
// collector that dispatched it, the record or its reply while in flight
// or queued, and each operator running from it. The last release returns
// the record to its host h; a record made elsewhere (h nil) is never
// reused. A copy the interconnect drops never releases its hold, and the
// record is left to the garbage collector.
type holds struct {
	h *Host
	n int32
}

// hold counts one more holder.
func (c *holds) hold() { c.n++ }

// drop releases one hold and reports whether it was the last on a record
// the host reuses.
func (c *holds) drop() bool {
	c.n--
	return c.n == 0 && c.h != nil
}

// pooled is a request record from a host's free list: a startOp or an
// auxLookup.
type pooled interface {
	hold()
	release()
}

// release drops one hold on a payload that is a request record.
func release(payload any) {
	if r, ok := payload.(pooled); ok {
		r.release()
	}
}

// aggregate is the function an Aggregate plan applies to its selection.
// COUNT/SUM/MIN/MAX decompose into per-operator partials that the
// scheduler combines with the same fold.
type aggregate struct {
	fn   plan.AggFn
	attr int
}

// fold combines x into acc, which holds nothing yet when first: COUNT and
// SUM add, MIN and MAX keep the extreme.
func (a *aggregate) fold(acc, x int64, first bool) int64 {
	switch a.fn {
	case plan.AggMin:
		if first || x < acc {
			return x
		}
		return acc
	case plan.AggMax:
		if first || x > acc {
			return x
		}
		return acc
	default:
		return acc + x
	}
}

// partial folds one operator's qualifying tuples, read in place.
func (a *aggregate) partial(acc *storage.Access) int64 {
	var v int64
	for i := 0; i < acc.N; i++ {
		x := int64(1) // COUNT counts tuples
		if a.fn != plan.AggCount {
			x = acc.Tuple(i).Attrs[a.attr]
		}
		v = a.fold(v, x, i == 0)
	}
	return v
}

// opError reports an operator that failed instead of completing: an
// injected disk fault, a missing (backup) fragment, or a routing error.
// Transient distinguishes faults worth retrying in place from those that
// require rerouting to a replica.
type opError struct {
	QueryID   int64
	Node      int
	Attempt   int
	Transient bool
	Msg       string
}

// auxLookup asks a node to search its fragment of a BERD auxiliary
// relation. It is a record from the host's free list and travels, and
// comes back as its reply, as startOp does; its operator's lookup fills
// the reply's lists in the record's own buffers.
type auxLookup struct {
	QueryID  int64
	Relation string
	Pred     core.Predicate
	ReplyTo  int
	Attempt  int
	Role     Role
	Epoch    int // placement generation, as startOp.Epoch

	// The reply: the node that answered, and the home processors (and
	// TIDs) of its qualifying entries, grouped as
	// storage.AuxFragment.Lookup groups them.
	Node    int
	byProc  [][]int64
	entries int
	bufs    storage.Buffers

	holds
}

// newStartOp returns a request record from the host's free list, or a
// spare or new one, held by its collector and by the message about to
// carry it.
func (h *Host) newStartOp() *startOp {
	var r *startOp
	if n := len(h.freeSel); n > 0 {
		r, h.freeSel = h.freeSel[n-1], h.freeSel[:n-1]
	} else {
		r = spareSels.take()
		h.sels = append(h.sels, r)
	}
	r.holds = holds{h: h, n: 2}
	return r
}

// release drops one hold; the last clears the record, keeping its TID
// list's storage and its buffers, and returns it to the host.
func (r *startOp) release() {
	if r.drop() {
		h := r.h
		*r = startOp{TIDs: r.TIDs[:0], bufs: r.bufs}
		h.freeSel = append(h.freeSel, r)
	}
}

// newAuxLookup returns a request record from the host's free list, or a
// new one, held by its collector and by the message about to carry it.
func (h *Host) newAuxLookup() *auxLookup {
	var r *auxLookup
	if n := len(h.freeAux); n > 0 {
		r, h.freeAux = h.freeAux[n-1], h.freeAux[:n-1]
	} else {
		r = &auxLookup{}
	}
	r.holds = holds{h: h, n: 2}
	return r
}

// release drops one hold; the last clears the record, keeping its
// buffers, and returns it to the host.
func (r *auxLookup) release() {
	if r.drop() {
		h := r.h
		*r = auxLookup{bufs: r.bufs}
		h.freeAux = append(h.freeAux, r)
	}
}

// batchMember is one query's share of a predicate-grouped shared-scan
// batch.
type batchMember struct {
	QID  int64
	Pred core.Predicate
	// Attempt echoes into the member's opResult so the scheduler's
	// collector can drop stale batch replies.
	Attempt int
}

// batchMemberBytes is the wire size of one batch member (query id +
// predicate).
const batchMemberBytes = 24

// batchOp asks a node to run one shared scan for a predicate group: the
// union of the members' page sets is read once, per-member qualification
// CPU is charged in full, and each member receives its own opResult, in
// admission order. It travels by pointer, as startOp does.
type batchOp struct {
	Relation string
	Access   plan.Access
	ReplyTo  int
	Members  []batchMember
	// Role and Epoch select the fragment exactly as on startOp; members
	// only batch within one (role, epoch) group.
	Role  Role
	Epoch int
}
