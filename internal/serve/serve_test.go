package serve

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/sim"
)

// fakeBackend executes every query as a fixed simulated service time.
// runServe gives it the run's engine.
type fakeBackend struct {
	eng     *sim.Engine
	service sim.Duration
	outcome exec.Outcome
}

func (b *fakeBackend) Submit(s exec.Submitter, n *plan.Node) {
	q := &fakeQuery{eng: b.eng, s: s,
		res: exec.QueryResult{Pred: n.Pred, Submitted: b.eng.Now(), Outcome: b.outcome}}
	b.eng.ScheduleHandler(b.service, q)
}

// fakeQuery completes one query when its service time is over.
type fakeQuery struct {
	eng *sim.Engine
	s   exec.Submitter
	res exec.QueryResult
}

func (q *fakeQuery) HandleEvent() {
	q.res.Completed = q.eng.Now()
	q.s.QueryDone(q.res)
}

// pointQueries samples uniform point selections labelled class.
func pointQueries(class string) func(src *rng.Source) (*plan.Node, string) {
	return func(src *rng.Source) (*plan.Node, string) {
		lo := int64(src.Intn(1000))
		return plan.Select("r", core.Predicate{Attr: 1, Lo: lo, Hi: lo}, plan.AccessClustered), class
	}
}

func testConfig(lambda float64) Config {
	return Config{
		Arrival:      ArrivalSpec{Kind: Poisson, RateQPS: lambda},
		Tenants:      DefaultTenants(2),
		MaxInService: 4,
		MaxQueue:     16,
		MaxQueueWait: sim.Milliseconds(200),
		SLOms:        50,
		Sample:       pointQueries("fake"),
	}
}

// testWindow is the measurement window testConfig's runs are measured over.
func testWindow() exec.WindowSpec {
	return exec.WindowSpec{WarmupQueries: 50, MeasureQueries: 500, MaxSimTime: 3600 * sim.Second}
}

func runServe(t *testing.T, seed int64, cfg Config, win exec.WindowSpec, backend Executor) Result {
	t.Helper()
	eng := sim.New()
	if fb, ok := backend.(*fakeBackend); ok {
		fb.eng = eng
	}
	res, err := Run(eng, rng.NewFactory(seed), cfg, win, backend)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// Underloaded: 4 slots x 5ms service = 800 q/s capacity, offered 200 q/s.
// Everything admitted completes, goodput is near-total, nothing sheds for
// queue-full reasons.
func TestRunUnderloaded(t *testing.T) {
	backend := &fakeBackend{service: sim.Milliseconds(5)}
	res := runServe(t, 1, testConfig(200), testWindow(), backend)
	if !res.Warmed || res.HitMaxSimTime {
		t.Fatalf("run did not complete normally: %+v", res)
	}
	if res.SLO.Completed != 500 {
		t.Fatalf("completed %d, want 500", res.SLO.Completed)
	}
	if res.SLO.ShedQueueFull != 0 || res.SLO.ShedAged != 0 {
		t.Fatalf("unexpected sheds in underload: %+v", res.SLO)
	}
	if res.SLO.Good < 490 {
		t.Fatalf("goodput %d of 500 too low for an underloaded system", res.SLO.Good)
	}
	qps := res.CompletedQPS()
	if qps < 150 || qps > 250 {
		t.Fatalf("completed qps %.1f, want about the offered 200", qps)
	}
	// Latency at 25% utilization is near the bare 5ms service time.
	if p99 := res.SLO.Latency.P99; p99 > 50 {
		t.Fatalf("p99 %.1fms too high for underload", p99)
	}
}

// Overloaded at 4x capacity: the bounded queue sheds, completions flow at
// the service rate, and admitted-query latency stays bounded by the queue
// cap (MaxQueue x service / slots) rather than growing with offered load.
func TestRunOverloadedSheds(t *testing.T) {
	backend := &fakeBackend{service: sim.Milliseconds(5)}
	res := runServe(t, 1, testConfig(3200), testWindow(), backend)
	if !res.Warmed || res.HitMaxSimTime {
		t.Fatalf("run did not complete normally: %+v", res)
	}
	if res.SLO.ShedQueueFull == 0 {
		t.Fatalf("overload must shed queue-full, got %+v", res.SLO)
	}
	if rate := res.SLO.ShedRate(); rate < 0.5 {
		t.Fatalf("shed rate %.2f too low for 4x overload", rate)
	}
	// Worst case queue wait: 16 queued / 4 slots x 5ms = 20ms; p99 latency
	// stays near 25ms, not the unbounded value an unlimited queue would see.
	if p99 := res.SLO.Latency.P99; p99 > 100 {
		t.Fatalf("admitted p99 %.1fms not bounded under overload", p99)
	}
	qps := res.CompletedQPS()
	if qps < 600 || qps > 900 {
		t.Fatalf("completed qps %.1f, want about the 800 q/s capacity", qps)
	}
}

// A tight age-out bound with a saturated queue sheds ShedAged at dequeue.
func TestRunAgesOutStaleQueries(t *testing.T) {
	cfg := testConfig(3200)
	cfg.MaxQueueWait = sim.Milliseconds(1) // any queue wait ages out
	backend := &fakeBackend{service: sim.Milliseconds(5)}
	res := runServe(t, 1, cfg, testWindow(), backend)
	if res.SLO.ShedAged == 0 {
		t.Fatalf("expected aged-out sheds with a 1ms bound: %+v", res.SLO)
	}
	// The 1:1 token/item invariant must survive the sheds: every measured
	// completion or shed traces to a measured arrival, except the bounded
	// carryover admitted before the warm-up reset (at most a full queue
	// plus the in-service slots).
	total := res.SLO.Completed + res.SLO.TotalShed()
	carryover := int64(cfg.MaxQueue + cfg.MaxInService)
	if total > res.SLO.Arrivals+carryover {
		t.Fatalf("accounting leak: completed+shed %d > arrivals %d + carryover %d",
			total, res.SLO.Arrivals, carryover)
	}
}

// Failed executions count against goodput even when fast.
func TestRunFailedExecutionsAreNotGoodput(t *testing.T) {
	backend := &fakeBackend{service: sim.Milliseconds(5), outcome: exec.OutcomeFailed}
	res := runServe(t, 1, testConfig(200), testWindow(), backend)
	if res.SLO.Good != 0 {
		t.Fatalf("goodput %d with all executions failed", res.SLO.Good)
	}
	if res.Outcomes.Failed != res.SLO.Completed {
		t.Fatalf("outcome tally %+v does not match completed %d", res.Outcomes, res.SLO.Completed)
	}
}

// A run must be a pure function of (seed, config): byte-identical results.
func TestRunDeterministic(t *testing.T) {
	for _, kind := range []ArrivalKind{Poisson, Bursty, Diurnal} {
		cfg := testConfig(1200)
		cfg.Arrival.Kind = kind
		a := runServe(t, 7, cfg, testWindow(), &fakeBackend{service: sim.Milliseconds(5)})
		b := runServe(t, 7, cfg, testWindow(), &fakeBackend{service: sim.Milliseconds(5)})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: same seed diverged:\n%+v\nvs\n%+v", kind, a, b)
		}
	}
}

// MaxSimTime must bound a run whose completion target is unreachable.
func TestRunHitsMaxSimTime(t *testing.T) {
	win := testWindow()
	win.MaxSimTime = 2 * sim.Second
	// 10 q/s: 550 completions would need 55s.
	res := runServe(t, 1, testConfig(10), win, &fakeBackend{service: sim.Milliseconds(5)})
	if !res.HitMaxSimTime {
		t.Fatalf("expected the time bound to trigger: %+v", res)
	}
	if res.MeasuredEnd > sim.Time(2*sim.Second)+sim.Time(sim.Millisecond) {
		t.Fatalf("run overran MaxSimTime: end %v", res.MeasuredEnd)
	}
}

// Weighted round-robin: under saturation a 3:1 weight split yields about a
// 3:1 completion split.
func TestRunWeightedFairness(t *testing.T) {
	cfg := testConfig(3200)
	cfg.Tenants = []Tenant{{Name: "gold", Weight: 3}, {Name: "bronze", Weight: 1}}
	cfg.MaxQueue = 64
	res := runServe(t, 3, cfg, testWindow(), &fakeBackend{service: sim.Milliseconds(5)})
	var gold, bronze int64
	for _, ts := range res.SLO.Tenants {
		switch ts.Name {
		case "gold":
			gold = ts.Completed
		case "bronze":
			bronze = ts.Completed
		}
	}
	if gold == 0 || bronze == 0 {
		t.Fatalf("both tenants must complete work: gold=%d bronze=%d", gold, bronze)
	}
	ratio := float64(gold) / float64(bronze)
	if ratio < 2.2 || ratio > 4 {
		t.Fatalf("completion ratio %.2f, want about 3 for 3:1 weights", ratio)
	}
}

// Smooth WRR must be deterministic and proportional when all queues are
// backlogged, with ties broken by tenant index.
func TestSmoothWRRSequence(t *testing.T) {
	q := newTenantQueues([]Tenant{{Name: "a", Weight: 3}, {Name: "b", Weight: 1}})
	// Backlog matching the weights (6 a's, 2 b's) so the full pop sequence
	// exercises two smooth-WRR cycles without either queue running dry early.
	for i := 0; i < 8; i++ {
		tenant := 0
		if i >= 6 {
			tenant = 1
		}
		q.Push(queued{id: int64(i), tenant: tenant})
	}
	var order []string
	for {
		item, ok := q.Pop()
		if !ok {
			break
		}
		order = append(order, []string{"a", "b"}[item.tenant])
	}
	// Classic smooth-WRR interleave for 3:1 is a a b a repeated.
	want := []string{"a", "a", "b", "a", "a", "a", "b", "a"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("WRR order %v, want %v", order, want)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := testConfig(100)
	cfg.Sample = nil
	if _, err := Run(sim.New(), rng.NewFactory(1), cfg, testWindow(), &fakeBackend{service: 1}); err == nil {
		t.Fatalf("missing Sample must be rejected")
	}
	cfg = testConfig(100)
	if _, err := Run(sim.New(), rng.NewFactory(1), cfg, testWindow(), nil); err == nil {
		t.Fatalf("missing backend must be rejected")
	}
	cfg = testConfig(100)
	cfg.Tenants = []Tenant{{Name: "x", Weight: -1}}
	if _, err := Run(sim.New(), rng.NewFactory(1), cfg, testWindow(), &fakeBackend{service: 1}); err == nil {
		t.Fatalf("negative tenant weight must be rejected")
	}
}

func TestShedRateCappedAtOne(t *testing.T) {
	// Warm-up carryover can make the raw shed/arrivals ratio exceed 1;
	// the reported rate must cap at 100%.
	s := SLOStats{Arrivals: 100, ShedQueueFull: 99, ShedShutdown: 3}
	if got := s.ShedRate(); got != 1 {
		t.Fatalf("ShedRate = %g, want capped 1", got)
	}
	s = SLOStats{Arrivals: 100, ShedQueueFull: 40}
	if got := s.ShedRate(); got != 0.4 {
		t.Fatalf("ShedRate = %g, want 0.4", got)
	}
	if got := (SLOStats{}).ShedRate(); got != 0 {
		t.Fatalf("empty ShedRate = %g", got)
	}
}
