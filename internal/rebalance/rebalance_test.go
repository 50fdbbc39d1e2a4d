package rebalance

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

func TestScheduleValidate(t *testing.T) {
	ok := Schedule{Events: []Event{
		{At: sim.Second, Kind: Join},
		{At: 2 * sim.Second, Kind: Leave, Node: 0},
		{At: 3 * sim.Second, Kind: Decommission, Node: 4}, // the joined standby
	}}
	if err := ok.Validate(4); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	if got := ok.Joins(); got != 1 {
		t.Fatalf("Joins() = %d, want 1", got)
	}
	cases := []struct {
		name    string
		initial int
		events  []Event
	}{
		{"zero initial", 0, nil},
		{"negative offset", 2, []Event{{At: -1, Kind: Join}}},
		{"unsorted", 2, []Event{{At: sim.Second, Kind: Join}, {At: sim.Millisecond, Kind: Leave, Node: 0}}},
		{"remove non-member", 2, []Event{{At: 0, Kind: Leave, Node: 7}}},
		{"remove twice", 3, []Event{{At: 0, Kind: Leave, Node: 1}, {At: sim.Second, Kind: Leave, Node: 1}}},
		{"remove last member", 1, []Event{{At: 0, Kind: Decommission, Node: 0}}},
		{"repair not schedulable", 2, []Event{{At: 0, Kind: Repair, Node: 0}}},
	}
	for _, tc := range cases {
		if err := (Schedule{Events: tc.events}).Validate(tc.initial); err == nil {
			t.Errorf("%s: Validate accepted an invalid schedule", tc.name)
		}
	}
}

func TestBuildPlanDedupAndOrder(t *testing.T) {
	// Three tuples sharing a source page, two sharing a destination page.
	moves := []TupleMove{
		{Src: 1, Dst: 0, SrcPage: 10, DstPage: 20},
		{Src: 1, Dst: 0, SrcPage: 10, DstPage: 20},
		{Src: 1, Dst: 0, SrcPage: 10, DstPage: 21},
		{Src: 0, Dst: 2, SrcPage: 5, DstPage: 30},
	}
	plan := BuildPlan(moves)
	if plan.Tuples != 4 || plan.ReadPages != 2 || plan.WritePages != 3 {
		t.Fatalf("plan counters = %d tuples, %d reads, %d writes; want 4, 2, 3",
			plan.Tuples, plan.ReadPages, plan.WritePages)
	}
	if len(plan.Moves) != 2 {
		t.Fatalf("got %d moves, want 2", len(plan.Moves))
	}
	// Moves ordered by (src, dst): (0,2) before (1,0).
	if plan.Moves[0].Src != 0 || plan.Moves[1].Src != 1 {
		t.Fatalf("moves not ordered by (src, dst): %+v", plan.Moves)
	}
	if got := plan.Moves[1].Reads; len(got) != 1 || got[0] != (PageRef{Node: 1, Page: 10}) {
		t.Fatalf("source page not deduplicated: %+v", got)
	}
}

func TestBuildPlanDeterministic(t *testing.T) {
	base := make([]TupleMove, 0, 200)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		base = append(base, TupleMove{
			Src:     rng.Intn(4),
			Dst:     4 + rng.Intn(4),
			SrcPage: rng.Intn(16),
			DstPage: rng.Intn(16),
		})
	}
	want := BuildPlan(base)
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]TupleMove(nil), base...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := BuildPlan(shuffled); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: plan differs under input reordering", trial)
		}
	}
}

// countingIO records page I/O and optionally fails selected reads.
type countingIO struct {
	reads, writes int
	failRead      map[PageRef]error
	err           error // the last page's outcome
}

func (io *countingIO) Start(w hw.Waiter, write bool, node, page int) bool {
	io.err = nil
	if write {
		io.writes++
		return true
	}
	io.reads++
	io.err = io.failRead[PageRef{Node: node, Page: page}]
	return true
}

func (io *countingIO) Step() bool { return true }
func (io *countingIO) Err() error { return io.err }

func TestCopierThrottle(t *testing.T) {
	eng := sim.New()
	io := &countingIO{}
	cp := &Copier{IO: io, RatePagesPerSec: 1000, PageBytes: 8192} // 1ms per page
	plan := BuildPlan([]TupleMove{
		{Src: 0, Dst: 1, SrcPage: 1, DstPage: 2},
		{Src: 0, Dst: 1, SrcPage: 3, DstPage: 4},
	})
	var done sim.Duration
	simtest.Spawn(eng, "copy", func(p *simtest.Proc) {
		if err := runCopy(eng, p, cp, plan); err != nil {
			t.Errorf("Run: %v", err)
		}
		done = sim.Duration(eng.Now())
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// 2 reads + 2 writes at 1ms each: the throttle gap precedes every page.
	if want := 4 * sim.Millisecond; done != want {
		t.Fatalf("copy finished at %v, want %v", done, want)
	}
	if io.reads != 2 || io.writes != 2 {
		t.Fatalf("IO counts = %d reads, %d writes; want 2, 2", io.reads, io.writes)
	}
	if cp.PagesCopied != 4 || cp.BytesCopied != 4*8192 || cp.Backlog != 0 {
		t.Fatalf("counters = %d pages, %d bytes, backlog %d", cp.PagesCopied, cp.BytesCopied, cp.Backlog)
	}
}

func TestCopierSurvivesPageErrors(t *testing.T) {
	eng := sim.New()
	boom := errors.New("disk gone")
	io := &countingIO{failRead: map[PageRef]error{{Node: 0, Page: 1}: boom}}
	cp := &Copier{IO: io, RatePagesPerSec: 1000, PageBytes: 8192}
	plan := BuildPlan([]TupleMove{
		{Src: 0, Dst: 1, SrcPage: 1, DstPage: 2},
		{Src: 0, Dst: 1, SrcPage: 3, DstPage: 4},
	})
	var err error
	simtest.Spawn(eng, "copy", func(p *simtest.Proc) { err = runCopy(eng, p, cp, plan) })
	if rerr := eng.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want wrapped %v", err, boom)
	}
	// The failing read does not abort the plan: every page is still attempted.
	if cp.PagesCopied != 4 || cp.Errors != 1 {
		t.Fatalf("copied %d pages with %d errors; want 4 and 1", cp.PagesCopied, cp.Errors)
	}
}

// scriptedExec records transitions and serves a fixed per-transition plan.
type scriptedExec struct {
	prepared []Transition
	cutovers []Transition
	plan     Plan
	failKind EventKind
	failErr  error
}

func (e *scriptedExec) Prepare(t Transition) (Plan, error) {
	e.prepared = append(e.prepared, t)
	if e.failErr != nil && t.Kind == e.failKind {
		return Plan{}, e.failErr
	}
	return e.plan, nil
}

func (e *scriptedExec) Cutover(t Transition) { e.cutovers = append(e.cutovers, t) }

func testPlan() Plan {
	return BuildPlan([]TupleMove{{Src: 0, Dst: 1, SrcPage: 1, DstPage: 2}})
}

func TestControllerScheduleWalk(t *testing.T) {
	eng := sim.New()
	ex := &scriptedExec{plan: testPlan()}
	cp := &Copier{IO: &countingIO{}, RatePagesPerSec: 1000, PageBytes: 8192}
	sched := Schedule{Events: []Event{
		{At: 10 * sim.Millisecond, Kind: Join},
		{At: 50 * sim.Millisecond, Kind: Decommission, Node: 1},
	}}
	if err := sched.Validate(3); err != nil {
		t.Fatal(err)
	}
	c := NewController(eng, sched, 3, []int{3}, ex, cp)
	c.Start()
	eng.Schedule(200*sim.Millisecond, eng.Stop)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ex.cutovers) != 2 {
		t.Fatalf("got %d cutovers, want 2", len(ex.cutovers))
	}
	join, decom := ex.cutovers[0], ex.cutovers[1]
	if join.Gen != 1 || join.Kind != Join || join.Node != 3 || !reflect.DeepEqual(join.Members, []int{0, 1, 2, 3}) {
		t.Fatalf("join transition = %+v", join)
	}
	if decom.Gen != 2 || decom.Kind != Decommission || !reflect.DeepEqual(decom.Members, []int{0, 2, 3}) {
		t.Fatalf("decommission transition = %+v", decom)
	}
	if got := c.Members(); !reflect.DeepEqual(got, []int{0, 2, 3}) {
		t.Fatalf("final members = %v", got)
	}
	rep := c.Report()
	if len(rep.Tasks) != 2 || rep.Errors != 0 {
		t.Fatalf("report = %+v", rep)
	}
	// Copy of 1 read + 1 write at 1ms each finishes 2ms after the plan time.
	if got := rep.Tasks[0].Rebalance(); got != 2*sim.Millisecond {
		t.Fatalf("join rebalance time = %v, want 2ms", got)
	}
	if rep.Tasks[1].PlannedAt != 50*sim.Millisecond {
		t.Fatalf("decommission planned at %v", rep.Tasks[1].PlannedAt)
	}
	if s := rep.Summary(); s == "" || rep.MaxRebalance() != 2*sim.Millisecond {
		t.Fatalf("summary %q, max ttr %v", s, rep.MaxRebalance())
	}
}

func TestControllerRepairPromotion(t *testing.T) {
	eng := sim.New()
	ex := &scriptedExec{plan: testPlan()}
	cp := &Copier{IO: &countingIO{}, RatePagesPerSec: 1000, PageBytes: 8192}
	sched := Schedule{Events: []Event{{At: 100 * sim.Millisecond, Kind: Join}}}
	c := NewController(eng, sched, 3, []int{3}, ex, cp)
	c.Start()
	// A permanent crash promoted mid-wait, plus a duplicate and a repair
	// for a node that is not a member — both must be ignored.
	eng.Schedule(20*sim.Millisecond, func() {
		c.RequestRepair(2)
		c.RequestRepair(2)
		c.RequestRepair(9)
	})
	eng.Schedule(300*sim.Millisecond, eng.Stop)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ex.cutovers) != 2 {
		t.Fatalf("got %d cutovers, want repair + join", len(ex.cutovers))
	}
	repair, join := ex.cutovers[0], ex.cutovers[1]
	if repair.Kind != Repair || repair.Node != 2 || !reflect.DeepEqual(repair.Members, []int{0, 1}) {
		t.Fatalf("repair transition = %+v", repair)
	}
	if join.Kind != Join || !reflect.DeepEqual(join.Members, []int{0, 1, 3}) {
		t.Fatalf("join transition = %+v", join)
	}
	rep := c.Report()
	if rep.Tasks[0].Kind != "repair" || rep.Tasks[0].PlannedAt != 20*sim.Millisecond {
		t.Fatalf("repair task = %+v", rep.Tasks[0])
	}
}

func TestControllerRefusesPrepareFailure(t *testing.T) {
	eng := sim.New()
	ex := &scriptedExec{plan: testPlan(), failKind: Leave, failErr: fmt.Errorf("strategy cannot build at n=2")}
	cp := &Copier{IO: &countingIO{}, RatePagesPerSec: 1000, PageBytes: 8192}
	sched := Schedule{Events: []Event{
		{At: 10 * sim.Millisecond, Kind: Leave, Node: 1},
		{At: 20 * sim.Millisecond, Kind: Join},
	}}
	c := NewController(eng, sched, 3, []int{3}, ex, cp)
	c.Start()
	eng.Schedule(100*sim.Millisecond, eng.Stop)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// The refused Leave leaves membership and generation untouched; the
	// Join still runs against the original membership at gen 1.
	if len(ex.cutovers) != 1 || ex.cutovers[0].Kind != Join || ex.cutovers[0].Gen != 1 {
		t.Fatalf("cutovers = %+v", ex.cutovers)
	}
	rep := c.Report()
	if len(rep.Tasks) != 2 || rep.Tasks[0].Err == "" || rep.Errors != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if got := c.Members(); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("members = %v", got)
	}
}

func TestControllerRefusesRemovingLastMember(t *testing.T) {
	eng := sim.New()
	ex := &scriptedExec{plan: testPlan()}
	cp := &Copier{IO: &countingIO{}, RatePagesPerSec: 1000, PageBytes: 8192}
	c := NewController(eng, Schedule{}, 1, nil, ex, cp)
	c.Start()
	eng.Schedule(sim.Millisecond, func() { c.RequestRepair(0) })
	eng.Schedule(10*sim.Millisecond, eng.Stop)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	if len(ex.cutovers) != 0 || len(rep.Tasks) != 1 || rep.Tasks[0].Err == "" {
		t.Fatalf("cutovers %d, report %+v", len(ex.cutovers), rep)
	}
	if got := c.Members(); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("members = %v", got)
	}
}

func TestEventKindString(t *testing.T) {
	for k, want := range map[EventKind]string{Join: "join", Leave: "leave", Decommission: "decommission", Repair: "repair"} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
	if got := EventKind(99).String(); got != "kind(99)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}
