package serve

import (
	"repro/internal/obs"
)

// Tracker is the serving layer's online SLO accounting: log-bucketed
// latency and queue-wait histograms (internal/obs), goodput against a
// latency objective, and typed shed counts, overall and per tenant. All
// latency figures are in milliseconds and cover admitted queries end to
// end, from arrival (not dispatch) to completion — queueing delay is part
// of the latency a client sees.
//
// The tracker is resettable at the warm-up boundary so steady-state
// statistics exclude the initial transient, matching the closed-loop runs.
type Tracker struct {
	sloMS float64

	arrivals  int64
	admitted  int64
	completed int64
	good      int64 // completed, succeeded, and within the SLO
	failed    int64 // completed with a non-success execution outcome
	sheds     [numShedReasons]int64

	latency   *obs.Histogram // arrival -> completion, ms
	queueWait *obs.Histogram // arrival -> dispatch, ms

	tenants []TenantStats
}

// TenantStats is one tenant's share of the accounting.
type TenantStats struct {
	Name      string `json:"name"`
	Arrivals  int64  `json:"arrivals"`
	Admitted  int64  `json:"admitted"`
	Completed int64  `json:"completed"`
	Good      int64  `json:"good"`
	Shed      int64  `json:"shed"`
}

// NewTracker builds a tracker for the given tenants and latency objective
// (milliseconds; <= 0 disables goodput accounting and Good == Completed-
// successes).
func NewTracker(tenants []Tenant, sloMS float64) *Tracker {
	ts := make([]TenantStats, len(tenants))
	for i, t := range tenants {
		ts[i].Name = t.Name
	}
	return &Tracker{
		sloMS:     sloMS,
		latency:   obs.NewHistogram(),
		queueWait: obs.NewHistogram(),
		tenants:   ts,
	}
}

// Arrival records one offered query for a tenant.
func (tr *Tracker) Arrival(tenant int) {
	tr.arrivals++
	tr.tenants[tenant].Arrivals++
}

// Admit records that an arrival entered the wait queue.
func (tr *Tracker) Admit(tenant int) {
	tr.admitted++
	tr.tenants[tenant].Admitted++
}

// Shed records a typed rejection.
func (tr *Tracker) Shed(tenant int, reason ShedReason) {
	tr.sheds[reason]++
	tr.tenants[tenant].Shed++
}

// Complete records a finished query: its queue wait, end-to-end latency,
// and whether it counts as goodput (execution succeeded and latency within
// the SLO).
func (tr *Tracker) Complete(tenant int, queueWaitMS, latencyMS float64, succeeded bool) {
	tr.completed++
	tr.queueWait.Observe(queueWaitMS)
	tr.latency.Observe(latencyMS)
	ts := &tr.tenants[tenant]
	ts.Completed++
	if !succeeded {
		tr.failed++
		return
	}
	if tr.sloMS <= 0 || latencyMS <= tr.sloMS {
		tr.good++
		ts.Good++
	}
}

// Reset discards all accumulated statistics (warm-up boundary), keeping the
// tenant roster and objective.
func (tr *Tracker) Reset() {
	tr.arrivals, tr.admitted, tr.completed, tr.good, tr.failed = 0, 0, 0, 0, 0
	tr.sheds = [numShedReasons]int64{}
	tr.latency.Reset()
	tr.queueWait.Reset()
	for i := range tr.tenants {
		tr.tenants[i] = TenantStats{Name: tr.tenants[i].Name}
	}
}

// shedTotal sums the typed shed counts since the last reset.
func (tr *Tracker) shedTotal() int64 {
	var t int64
	for _, v := range tr.sheds {
		t += v
	}
	return t
}

// SLOStats is a serialization-friendly snapshot of the tracker.
type SLOStats struct {
	SLOms     float64 `json:"slo_ms"`
	Arrivals  int64   `json:"arrivals"`
	Admitted  int64   `json:"admitted"`
	Completed int64   `json:"completed"`
	Good      int64   `json:"good"`
	Failed    int64   `json:"failed"`

	ShedQueueFull int64 `json:"shed_queue_full"`
	ShedAged      int64 `json:"shed_aged"`
	ShedShutdown  int64 `json:"shed_shutdown"`

	Latency   obs.HistogramStats `json:"latency_ms"`
	QueueWait obs.HistogramStats `json:"queue_wait_ms"`
	P95ms     float64            `json:"p95_ms"`

	Tenants []TenantStats `json:"tenants"`
}

// TotalShed sums the typed shed counts.
func (s SLOStats) TotalShed() int64 {
	return s.ShedQueueFull + s.ShedAged + s.ShedShutdown
}

// ShedRate is shed / arrivals (0 when no arrivals), capped at 1: queries
// admitted before the warm-up reset but shed after it can push the raw
// ratio a hair past 100% in a heavily overloaded window.
func (s SLOStats) ShedRate() float64 {
	if s.Arrivals == 0 {
		return 0
	}
	r := float64(s.TotalShed()) / float64(s.Arrivals)
	if r > 1 {
		return 1
	}
	return r
}

// Snapshot captures the current statistics.
func (tr *Tracker) Snapshot() SLOStats {
	s := SLOStats{
		SLOms:         tr.sloMS,
		Arrivals:      tr.arrivals,
		Admitted:      tr.admitted,
		Completed:     tr.completed,
		Good:          tr.good,
		Failed:        tr.failed,
		ShedQueueFull: tr.sheds[ShedQueueFull],
		ShedAged:      tr.sheds[ShedAged],
		ShedShutdown:  tr.sheds[ShedShutdown],
		Latency:       tr.latency.Stats(),
		QueueWait:     tr.queueWait.Stats(),
		P95ms:         tr.latency.Quantile(95),
		Tenants:       append([]TenantStats(nil), tr.tenants...),
	}
	return s
}
