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
// travels by pointer, and the operator reads it in place; no one writes
// it once it is sent, so a duplicated message may share it.
type startOp struct {
	QueryID  int64
	Relation string
	Pred     core.Predicate
	Access   plan.Access
	TIDs     []int64 // plan.AccessTIDFetch only: the primary fragment's qualifying TIDs
	ReplyTo  int     // scheduler node
	// Attempt tags this dispatch for at-most-once accounting under retries
	// and message duplication: the scheduler's collector matches replies
	// to their live attempt by it.
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
}

// opResult carries an operator's qualifying tuples (or, for an aggregate,
// their partial) back to the scheduler; its arrival also serves as the
// operator's completion signal.
type opResult struct {
	QueryID int64
	Node    int
	Tuples  int
	Value   int64 // the aggregate's partial over Tuples (aggregates only)
	Attempt int   // echoes startOp.Attempt
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
// relation. It travels by pointer, as startOp does.
type auxLookup struct {
	QueryID  int64
	Relation string
	Pred     core.Predicate
	ReplyTo  int
	Attempt  int
	Role     Role
	Epoch    int // placement generation, as startOp.Epoch
}

// auxResult returns the home processors (and TIDs) of qualifying tuples.
type auxResult struct {
	QueryID int64
	Node    int
	// TIDsByProc lists, per home processor, the qualifying TIDs stored
	// there (storage.AuxFragment.Lookup's grouping).
	TIDsByProc [][]int64
	Entries    int
	Attempt    int // echoes auxLookup.Attempt
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

// attemptTagged is implemented by result messages that echo their dispatch
// attempt, letting the scheduler's collector drop stale and duplicated
// replies.
type attemptTagged interface{ attemptID() int }

func (r opResult) attemptID() int  { return r.Attempt }
func (r auxResult) attemptID() int { return r.Attempt }
