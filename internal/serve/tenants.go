package serve

import (
	"fmt"

	"repro/internal/plan"
	"repro/internal/sim"
)

// Tenant is one logical customer of the serving layer. Weight sets its
// share of dispatch slots under contention (weighted round-robin); it has
// no effect while the system is underloaded, because an empty queue is
// simply skipped.
type Tenant struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
}

// DefaultTenants returns n equally weighted tenants named t0..t(n-1).
func DefaultTenants(n int) []Tenant {
	ts := make([]Tenant, n)
	for i := range ts {
		ts[i] = Tenant{Name: fmt.Sprintf("t%d", i), Weight: 1}
	}
	return ts
}

// queued is one admitted-but-not-yet-dispatched query.
type queued struct {
	id       int64
	tenant   int
	query    *plan.Node
	class    string
	arrived  sim.Time
	admitted sim.Time
}

// tenantQueues is the dispatch structure: one FIFO per tenant plus a smooth
// weighted round-robin selector (the nginx algorithm: each pick adds every
// backlogged tenant's weight to its current credit, dispatches the tenant
// with the most credit, and charges it the total added weight). Smooth WRR
// interleaves tenants proportionally instead of draining each tenant's
// whole allocation in a burst, and is fully deterministic: ties break on
// the lowest tenant index.
type tenantQueues struct {
	tenants []Tenant
	queues  [][]queued // per-tenant FIFO (slice-as-deque; head compacted on dispatch)
	credit  []float64
	total   int
}

func newTenantQueues(tenants []Tenant) *tenantQueues {
	return &tenantQueues{
		tenants: tenants,
		queues:  make([][]queued, len(tenants)),
		credit:  make([]float64, len(tenants)),
	}
}

// Len reports the total queued count across tenants.
func (q *tenantQueues) Len() int { return q.total }

// TenantLen reports one tenant's queued count.
func (q *tenantQueues) TenantLen(tenant int) int { return len(q.queues[tenant]) }

// Push appends to the item's tenant FIFO.
func (q *tenantQueues) Push(item queued) {
	q.queues[item.tenant] = append(q.queues[item.tenant], item)
	q.total++
}

// Pop removes and returns the next item under smooth WRR, or false when
// every queue is empty.
func (q *tenantQueues) Pop() (queued, bool) {
	if q.total == 0 {
		return queued{}, false
	}
	best := -1
	var sum float64
	for i := range q.tenants {
		if len(q.queues[i]) == 0 {
			continue
		}
		w := q.tenants[i].Weight
		if w <= 0 {
			w = 1
		}
		q.credit[i] += w
		sum += w
		if best == -1 || q.credit[i] > q.credit[best] {
			best = i
		}
	}
	q.credit[best] -= sum
	item := q.queues[best][0]
	q.queues[best] = q.queues[best][1:]
	if len(q.queues[best]) == 0 {
		// Reclaim the drained backing array so a long run does not pin the
		// high-water mark of every tenant's queue.
		q.queues[best] = nil
	}
	q.total--
	return item, true
}

// Drain removes and returns every queued item in tenant order (used at
// shutdown to shed the residue with a typed outcome).
func (q *tenantQueues) Drain() []queued {
	out := make([]queued, 0, q.total)
	for i := range q.queues {
		out = append(out, q.queues[i]...)
		q.queues[i] = nil
	}
	q.total = 0
	return out
}
