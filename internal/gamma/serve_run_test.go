package gamma

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Two RunServe calls on the same machine with the same spec must agree
// exactly: the serving layer's rng streams are derived from the run seed,
// so the reset machine replays the identical arrival, admission and
// execution history.
func TestRunServeDeterministic(t *testing.T) {
	rel := smallRelation(t, 0)
	m := buildRange(t, rel, DefaultConfig())
	mix := workload.LowLow(rel.Cardinality())
	spec := ServeSpec{
		Arrival:        serve.ArrivalSpec{Kind: serve.Bursty, RateQPS: 300},
		MaxInService:   8,
		WarmupQueries:  20,
		MeasureQueries: 150,
		MaxSimTime:     20 * sim.Second,
	}

	a, err := m.RunServe(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.RunServe(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed+spec produced different serving results:\n%+v\n%+v", a, b)
	}
	if a.Serve.SLO.Completed == 0 {
		t.Fatal("no queries completed")
	}
}

// A node crash mid-admission under heavy overload: the front end must keep
// draining — queries on the dead node fail with a typed outcome, queued
// queries are shed with typed reasons — and the run must terminate instead
// of hanging on a query that will never complete. Run under -race in CI:
// the crash path exercises injector callbacks interleaved with the
// dispatcher's queue scan.
func TestRunServeCrashMidAdmissionSheds(t *testing.T) {
	rel := smallRelation(t, 0)
	cfg := DefaultConfig()
	// No chained replicas: queries hitting the dead node cannot reroute,
	// so they must surface as failed outcomes, not hangs.
	cfg.Faults = &fault.Spec{
		Events: []fault.Event{
			// Crash while the wait queues are saturated and stay down for
			// the rest of the run.
			{At: 50 * sim.Millisecond, Kind: fault.NodeCrash, Node: 2, Dur: 60 * sim.Second},
		},
	}
	m := buildRange(t, rel, cfg)
	mix := workload.LowLow(rel.Cardinality())
	spec := ServeSpec{
		// ~4x the capacity this 8-node machine sustains, through a small
		// queue, so admission is shedding when the crash lands.
		Arrival:        serve.ArrivalSpec{Kind: serve.Poisson, RateQPS: 3000},
		MaxInService:   16,
		MaxQueue:       32,
		WarmupQueries:  10,
		MeasureQueries: 400,
		MaxSimTime:     10 * sim.Second,
	}

	res, err := m.RunServe(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FaultLog) == 0 {
		t.Fatal("crash event was not applied")
	}
	slo := res.Serve.SLO
	if slo.TotalShed() == 0 {
		t.Fatalf("overloaded run with a crashed node shed nothing: %+v", slo)
	}
	if slo.ShedQueueFull == 0 {
		t.Fatalf("expected queue-full sheds under 4x overload: %+v", slo)
	}
	// Every shed is typed: the counters account for the total exactly.
	if slo.TotalShed() != slo.ShedQueueFull+slo.ShedAged+slo.ShedShutdown {
		t.Fatalf("untyped sheds: %+v", slo)
	}
	// The dead node makes some admitted queries fail; they must be counted
	// as completions with a failure outcome, not goodput.
	if res.Serve.Outcomes.Failed == 0 {
		t.Fatalf("no failed outcomes despite a crashed node: %+v", res.Serve.Outcomes)
	}
	if slo.Good >= slo.Completed {
		t.Fatalf("failures leaked into goodput: good %d of %d completed", slo.Good, slo.Completed)
	}
	// Termination was by measurement target or time bound — either way the
	// run returned; a hang would have kept the engine running past both.
	if !res.Serve.HitMaxSimTime && slo.Completed < int64(spec.MeasureQueries) {
		t.Fatalf("run stopped early without hitting the time bound: %+v", slo)
	}
}
