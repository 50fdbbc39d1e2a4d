package serve

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Executor starts one query plan inside the simulation and reports its
// typed result to the submitter when it completes. exec.Host satisfies
// it; the indirection keeps this package from importing the machine
// assembly.
type Executor interface {
	Submit(s exec.Submitter, n *plan.Node)
}

// Config parameterizes one serving run.
type Config struct {
	// Arrival is the open arrival process (required: RateQPS > 0).
	Arrival ArrivalSpec
	// Tenants are the logical customers; arrivals are assigned uniformly at
	// random across them, weights govern dispatch under contention.
	// Default: 4 equally weighted tenants.
	Tenants []Tenant

	// MaxInService is the MPL governor: the number of service slots, i.e.
	// the most queries executing concurrently. Default 64 (the paper's top
	// closed-loop MPL).
	MaxInService int
	// MaxQueue bounds the admission wait queue, partitioned evenly across
	// tenants: an arrival whose tenant partition is full is shed with
	// ShedQueueFull even if other partitions have room. Per-tenant
	// backpressure is what makes weighted fairness measurable under
	// overload — with one shared bound, a slow tenant's backlog would
	// crowd out every other tenant's admissions. Default 4 x MaxInService.
	MaxQueue int
	// MaxQueueWait ages out queries that waited too long for a service
	// slot: the dispatcher sheds them with ShedAged instead of burning a
	// slot on already-missed deadlines. Default 4 x SLOms.
	MaxQueueWait sim.Duration
	// SLOms is the latency objective for goodput accounting. Default 1000.
	SLOms float64

	// Sample draws one query plan (and a class label for traces) per
	// admitted arrival, from the given dedicated stream. Required.
	Sample func(src *rng.Source) (*plan.Node, string)
	// BurnBudget is the per-window fraction of completions allowed to miss
	// the SLO (or fail) before the window counts as an SLO violation.
	// Default 0.1. Only consulted when the window's Telemetry is set.
	BurnBudget float64
}

func (c Config) withDefaults() Config {
	if len(c.Tenants) == 0 {
		c.Tenants = DefaultTenants(4)
	}
	if c.MaxInService <= 0 {
		c.MaxInService = 64
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInService
	}
	if c.SLOms <= 0 {
		c.SLOms = 1000
	}
	if c.MaxQueueWait <= 0 {
		c.MaxQueueWait = sim.Milliseconds(4 * c.SLOms)
	}
	return c
}

// Validate rejects configs the frontend cannot run.
func (c Config) Validate() error {
	if err := c.Arrival.Validate(); err != nil {
		return err
	}
	if c.Sample == nil {
		return fmt.Errorf("serve: Config.Sample is required")
	}
	for i, t := range c.Tenants {
		if t.Weight < 0 {
			return fmt.Errorf("serve: tenant %d (%s) has negative weight %g", i, t.Name, t.Weight)
		}
	}
	return nil
}

// Result is one serving run's measured statistics (the post-warm-up
// window only).
type Result struct {
	Arrival    ArrivalKind `json:"arrival"`
	OfferedQPS float64     `json:"offered_qps"`

	SLO      SLOStats      `json:"slo"`
	Outcomes exec.Outcomes `json:"outcomes"`

	MeasuredStart sim.Time `json:"measured_start_ns"`
	MeasuredEnd   sim.Time `json:"measured_end_ns"`

	// Warmed is false when MaxSimTime expired inside warm-up; the SLO
	// window then covers whatever ran after the (never-reached) boundary.
	Warmed bool `json:"warmed"`
	// HitMaxSimTime is true when the run stopped on the time bound rather
	// than the completion target.
	HitMaxSimTime bool `json:"hit_max_sim_time"`

	// Burn is the SLO burn-rate evaluator's verdict over the measured
	// windows — first-violation and recovery times included. Nil when the
	// run had no telemetry attached.
	Burn *BurnStats `json:"burn,omitempty"`
}

// ElapsedSeconds is the measurement window's length in simulated seconds.
func (r Result) ElapsedSeconds() float64 {
	return (r.MeasuredEnd - r.MeasuredStart).Seconds()
}

// CompletedQPS is the measured completion throughput.
func (r Result) CompletedQPS() float64 {
	if e := r.ElapsedSeconds(); e > 0 {
		return float64(r.SLO.Completed) / e
	}
	return 0
}

// GoodputQPS is the measured rate of queries that succeeded within the SLO.
func (r Result) GoodputQPS() float64 {
	if e := r.ElapsedSeconds(); e > 0 {
		return float64(r.SLO.Good) / e
	}
	return 0
}

// Run executes one open-system serving run to completion on the engine,
// measured over win: it starts the arrival loop and MaxInService workers,
// all handlers, runs the engine until the window closes (or its MaxSimTime
// passes), sheds the queued residue, and returns the measured statistics.
// Run supplies the window's ResetAdmission (the SLO tracker and burn
// evaluator) and, with telemetry armed, registers the serving probes on
// win.Telemetry and sets AfterSample to score each window's SLO burn.
//
// Determinism: the run draws from exactly three dedicated streams —
// "serve.arrivals" (inter-arrival gaps), "serve.tenant" (tenant
// assignment), and "serve.sample" (predicate sampling) — in arrival order,
// so the full admission schedule is a pure function of (seed, config).
func Run(eng *sim.Engine, streams *rng.Factory, cfg Config, win exec.WindowSpec, backend Executor) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if backend == nil {
		return Result{}, fmt.Errorf("serve: backend executor is required")
	}

	arrivalSrc := streams.Stream("serve.arrivals")
	tenantSrc := streams.Stream("serve.tenant")
	sampleSrc := streams.Stream("serve.sample")
	arr, err := NewArrivals(cfg.Arrival, arrivalSrc)
	if err != nil {
		return Result{}, err
	}

	f := &frontend{
		cfg:     cfg,
		eng:     eng,
		tracker: NewTracker(cfg.Tenants, cfg.SLOms),
		queues:  newTenantQueues(cfg.Tenants),
		work:    sim.NewMailbox[struct{}](eng, "serve.work"),
		backend: backend,
	}
	perTenantCap := cfg.MaxQueue / len(cfg.Tenants)
	if perTenantCap < 1 {
		perTenantCap = 1
	}

	win.ResetAdmission = func() {
		f.tracker.Reset()
		if f.burn != nil {
			f.burn.rebase(f.tracker)
		}
	}
	if ts := win.Telemetry; ts != nil {
		f.burn = newBurnEval(ts.WindowNS(), cfg.BurnBudget)
		f.registerProbes(ts)
		win.AfterSample = func(now sim.Time) { f.burn.observe(now, f.tracker) }
	}
	if f.win, err = exec.NewWindow(eng, win); err != nil {
		return Result{}, err
	}
	f.win.StartSampler()

	// The arrival loop: every event after its first admits (or sheds) one
	// arrival, and every event schedules the next one a gap later.
	var arrive func()
	arrive = func() {
		if eng.Stopped() {
			return
		}
		f.arrival(tenantSrc.Intn(len(cfg.Tenants)), sampleSrc, perTenantCap)
		eng.Schedule(arr.Next(), arrive)
	}
	eng.Schedule(0, func() { eng.Schedule(arr.Next(), arrive) })
	for w := 0; w < cfg.MaxInService; w++ {
		eng.ScheduleHandler(0, &worker{f: f, id: w})
	}

	reached, err := f.win.Run()
	if err != nil {
		return Result{}, err
	}
	eng.Stop() // idempotent; covers the MaxSimTime path

	// Shed the queued residue with a typed outcome so every admitted query
	// is accounted for.
	for _, item := range f.queues.Drain() {
		f.tracker.Shed(item.tenant, ShedShutdown)
	}

	end := eng.Now()
	res := Result{
		Arrival:       arr.Kind(),
		OfferedQPS:    arr.RateQPS(),
		SLO:           f.tracker.Snapshot(),
		Outcomes:      f.win.Outcomes(),
		MeasuredStart: f.win.Start(),
		MeasuredEnd:   end,
		Warmed:        f.win.Opened(),
		HitMaxSimTime: !reached,
	}
	if !res.Warmed {
		res.MeasuredStart = end // empty window: no measured statistics
	}
	if f.burn != nil {
		b := f.burn.stats
		res.Burn = &b
	}
	return res, nil
}

// frontend is the serving run's shared mutable state. The simulation kernel
// runs one handler at a time, so no locking is needed.
type frontend struct {
	cfg     Config
	eng     *sim.Engine
	win     *exec.Window
	tracker *Tracker
	queues  *tenantQueues
	work    *sim.Mailbox[struct{}]
	backend Executor

	nextID   int64
	inflight int       // queries currently executing (telemetry probe)
	burn     *burnEval // nil without telemetry
}

// registerProbes wires the serving layer's time series onto the sampler.
// Closure-state probes (the windowed queue-wait mean, the windowed shed
// rate) re-prime themselves at warm-up because Rebase invokes every probe.
func (f *frontend) registerProbes(ts *obs.Sampler) {
	tr := f.tracker
	ts.Register("serve.arrival_qps", obs.SeriesRate, func() float64 { return float64(tr.arrivals) })
	ts.Register("serve.admitted_qps", obs.SeriesRate, func() float64 { return float64(tr.admitted) })
	ts.Register("serve.completed_qps", obs.SeriesRate, func() float64 { return float64(tr.completed) })
	ts.Register("serve.goodput_qps", obs.SeriesRate, func() float64 { return float64(tr.good) })
	ts.Register("serve.shed_qps", obs.SeriesRate, func() float64 { return float64(tr.shedTotal()) })
	ts.Register("serve.queue_depth", obs.SeriesGauge, func() float64 { return float64(f.queues.Len()) })
	ts.Register("serve.inflight", obs.SeriesGauge, func() float64 { return float64(f.inflight) })
	ts.Register("serve.credits", obs.SeriesGauge, func() float64 {
		return float64(f.cfg.MaxInService - f.inflight)
	})
	// Windowed queue-wait mean: difference the histogram's cumulative sum
	// and count across sample instants.
	prevSum, prevN := tr.queueWait.Sum(), tr.queueWait.N()
	ts.Register("serve.queue_wait_ms", obs.SeriesGauge, func() float64 {
		sum, n := tr.queueWait.Sum(), tr.queueWait.N()
		dSum, dN := sum-prevSum, n-prevN
		prevSum, prevN = sum, n
		if dN <= 0 || dSum < 0 {
			return 0
		}
		return dSum / float64(dN)
	})
	// Windowed shed rate: sheds over arrivals within the window.
	prevShed, prevArr := tr.shedTotal(), tr.arrivals
	ts.Register("serve.shed_rate", obs.SeriesGauge, func() float64 {
		shed, arr := tr.shedTotal(), tr.arrivals
		dShed, dArr := shed-prevShed, arr-prevArr
		prevShed, prevArr = shed, arr
		if dArr <= 0 || dShed < 0 {
			return 0
		}
		return float64(dShed) / float64(dArr)
	})
}

// arrival assigns an arrival to tenant and queues it, or sheds it when
// the tenant's partition is full.
func (f *frontend) arrival(tenant int, sampleSrc *rng.Source, perTenantCap int) {
	f.tracker.Arrival(tenant)
	if f.queues.TenantLen(tenant) >= perTenantCap {
		f.tracker.Shed(tenant, ShedQueueFull)
		return
	}
	f.nextID++
	query, class := f.cfg.Sample(sampleSrc)
	f.tracker.Admit(tenant)
	now := f.eng.Now()
	f.queues.Push(queued{id: f.nextID, tenant: tenant, query: query, class: class, arrived: now, admitted: now})
	// One work token per queued item: the token mailbox is the governor's
	// credit ledger, and the 1:1 invariant between tokens and queued items
	// must hold even across age-out sheds (a shed consumes its token and
	// the worker waits again).
	f.work.Put(struct{}{})
}

// worker is one service slot, a handler: it waits on the work-token
// mailbox with every other idle worker, in FIFO order, picks the next
// query under weighted round-robin, sheds it if it aged out in the queue,
// and otherwise submits it and records its result on completion.
type worker struct {
	f    *frontend
	id   int
	item queued       // the query in service
	wait sim.Duration // its wait for a service slot
}

// HandleEvent runs the worker's first event and every wake-up by a work
// token. It implements sim.Handler and is not meant to be called directly.
func (w *worker) HandleEvent() { w.next() }

// Name names the worker on its queries' spans (exec.Submitter).
func (w *worker) Name() string { return fmt.Sprintf("serve.worker%d", w.id) }

// next takes work tokens until it submits a query or must wait for the
// next token.
func (w *worker) next() {
	f := w.f
	for {
		if _, ok := f.work.Wait(w); !ok {
			return
		}
		if f.eng.Stopped() {
			return
		}
		item, ok := f.queues.Pop()
		if !ok {
			// A token without an item means the 1:1 invariant broke.
			panic("serve: work token with empty queue")
		}
		wait := sim.Duration(f.eng.Now() - item.arrived)
		if wait > f.cfg.MaxQueueWait {
			f.tracker.Shed(item.tenant, ShedAged)
			continue
		}
		f.inflight++
		w.item, w.wait = item, wait
		f.backend.Submit(w, item.query)
		return
	}
}

// QueryDone records the completed query's wait, latency and outcome, and
// takes the next token (exec.Submitter).
func (w *worker) QueryDone(res exec.QueryResult) {
	f, item := w.f, w.item
	f.inflight--
	waitMS := w.wait.Milliseconds()
	latencyMS := sim.Duration(f.eng.Now() - item.arrived).Milliseconds()
	f.tracker.Complete(item.tenant, waitMS, latencyMS, res.Outcome.Succeeded())
	f.win.Complete(res.Outcome)
	w.next()
}
