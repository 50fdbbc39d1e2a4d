package gamma

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/storage"
	"repro/internal/workload"
)

// testProcs is the processor count of the test placements: a machine
// has as many nodes as its placement has processors.
const testProcs = 8

func smallRelation(t *testing.T, corrWindow int) *storage.Relation {
	t.Helper()
	return storage.GenerateWisconsin(storage.GenSpec{
		Cardinality: 4000, CorrelationWindow: corrWindow, Seed: 11,
	})
}

func buildRange(t *testing.T, rel *storage.Relation, cfg Config) *Machine {
	t.Helper()
	pl := core.NewRangeForRelation(rel, storage.Unique1, testProcs)
	m, err := Build(rel, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func buildBERD(t *testing.T, rel *storage.Relation, cfg Config) *Machine {
	t.Helper()
	pl := core.NewBERDForRelation(rel, storage.Unique1, []int{storage.Unique2}, testProcs)
	m, err := Build(rel, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func buildMAGIC(t *testing.T, rel *storage.Relation, cfg Config, mix workload.Mix) *Machine {
	t.Helper()
	specs := workload.EstimateSpecs(mix, rel.Cardinality(), cfg.HW, cfg.Costs)
	pp := workload.PlanParamsFor(rel.Cardinality(), testProcs, cfg.Costs)
	pl, err := core.BuildMAGIC(rel, []int{storage.Unique1, storage.Unique2}, specs, pp, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(rel, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// executeOne runs a single query on the machine and returns its result.
func executeOne(t *testing.T, m *Machine, pred core.Predicate, mix workload.Mix) exec.QueryResult {
	t.Helper()
	var res exec.QueryResult
	simtest.Spawn(m.Eng, "probe", func(p *simtest.Proc) {
		res = submit(p, m.Host, plan.Select(m.Relation.Name, pred, mix.AccessChooser()(pred)))
		m.Eng.Stop()
	})
	if err := m.Eng.RunUntil(sim.Time(10 * 60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("query never completed")
	}
	return res
}

func TestSingleTupleQueryOnRange(t *testing.T) {
	rel := smallRelation(t, 0)
	m := buildRange(t, rel, DefaultConfig())
	mix := workload.LowLow(rel.Cardinality())
	res := executeOne(t, m, core.Predicate{Attr: storage.Unique1, Lo: 2000, Hi: 2000}, mix)
	if res.Tuples != 1 {
		t.Fatalf("retrieved %d tuples, want 1", res.Tuples)
	}
	if res.ProcessorsUsed != 1 {
		t.Fatalf("range equality used %d processors", res.ProcessorsUsed)
	}
	if res.ResponseMS() <= 0 || res.ResponseMS() > 1000 {
		t.Fatalf("implausible response time %gms", res.ResponseMS())
	}
}

func TestClusteredRangeOnRangeGoesEverywhere(t *testing.T) {
	rel := smallRelation(t, 0)
	m := buildRange(t, rel, DefaultConfig())
	mix := workload.LowLow(rel.Cardinality())
	// Predicate on B: range partitioning on A must ask all processors.
	res := executeOne(t, m, core.Predicate{Attr: storage.Unique2, Lo: 1000, Hi: 1009}, mix)
	if res.Tuples != 10 {
		t.Fatalf("retrieved %d tuples, want 10", res.Tuples)
	}
	if res.ProcessorsUsed != 8 {
		t.Fatalf("used %d processors, want all 8", res.ProcessorsUsed)
	}
}

func TestBERDSecondaryTwoStepExecution(t *testing.T) {
	rel := smallRelation(t, 0)
	m := buildBERD(t, rel, DefaultConfig())
	mix := workload.LowLow(rel.Cardinality())
	res := executeOne(t, m, core.Predicate{Attr: storage.Unique2, Lo: 1000, Hi: 1009}, mix)
	if res.Tuples != 10 {
		t.Fatalf("retrieved %d tuples, want 10", res.Tuples)
	}
	if res.AuxProcessors < 1 {
		t.Fatal("BERD never consulted the auxiliary relation")
	}
	// Uncorrelated: 10 tuples live on up to 10 + aux distinct processors,
	// but never all-plus: must be localized vs range's 8-everywhere when
	// the tuples cluster; here with 8 processors it may reach 8+aux.
	if res.ProcessorsUsed > 9 {
		t.Fatalf("BERD used %d processors", res.ProcessorsUsed)
	}
}

func TestBERDCorrelatedLocalizesToOneProcessor(t *testing.T) {
	rel := smallRelation(t, 1) // identical attributes
	m := buildBERD(t, rel, DefaultConfig())
	mix := workload.LowLow(rel.Cardinality())
	res := executeOne(t, m, core.Predicate{Attr: storage.Unique2, Lo: 1000, Hi: 1009}, mix)
	if res.Tuples != 10 {
		t.Fatalf("retrieved %d tuples", res.Tuples)
	}
	// Identical attributes: the 10 tuples share one home processor; with
	// the aux fragment the query touches at most 2 distinct processors.
	if res.ProcessorsUsed > 2 {
		t.Fatalf("correlated BERD used %d processors", res.ProcessorsUsed)
	}
}

func TestMAGICQueriesUseSubsets(t *testing.T) {
	rel := smallRelation(t, 0)
	mix := workload.LowLow(rel.Cardinality())
	m := buildMAGIC(t, rel, DefaultConfig(), mix)
	resA := executeOne(t, m, core.Predicate{Attr: storage.Unique1, Lo: 2000, Hi: 2000}, mix)
	if resA.Tuples != 1 {
		t.Fatalf("QA retrieved %d tuples", resA.Tuples)
	}
	if resA.ProcessorsUsed >= 8 || resA.AuxProcessors != 0 {
		t.Fatalf("MAGIC QA used %d processors (aux %d)", resA.ProcessorsUsed, resA.AuxProcessors)
	}
	// Fresh engine for a second independent probe.
	m.reset()
	resB := executeOne(t, m, core.Predicate{Attr: storage.Unique2, Lo: 1000, Hi: 1009}, mix)
	if resB.Tuples != 10 {
		t.Fatalf("QB retrieved %d tuples", resB.Tuples)
	}
	if resB.ProcessorsUsed >= 8 {
		t.Fatalf("MAGIC QB used %d processors", resB.ProcessorsUsed)
	}
}

// Every strategy must return exactly the same answer for the same query.
func TestAllStrategiesAgreeOnResults(t *testing.T) {
	rel := smallRelation(t, 0)
	cfg := DefaultConfig()
	mix := workload.LowLow(rel.Cardinality())
	machines := []*Machine{
		buildRange(t, rel, cfg),
		buildBERD(t, rel, cfg),
		buildMAGIC(t, rel, cfg, mix),
	}
	preds := []core.Predicate{
		{Attr: storage.Unique1, Lo: 123, Hi: 123},
		{Attr: storage.Unique1, Lo: 1000, Hi: 1029},
		{Attr: storage.Unique2, Lo: 3000, Hi: 3299},
		{Attr: storage.Unique2, Lo: 3999, Hi: 3999},
	}
	for _, pred := range preds {
		want := 0
		for _, tup := range rel.Tuples {
			v := tup.Attrs[pred.Attr]
			if v >= pred.Lo && v <= pred.Hi {
				want++
			}
		}
		for _, m := range machines {
			m.reset()
			res := executeOne(t, m, pred, mix)
			if res.Tuples != want {
				t.Fatalf("%s on %v: got %d tuples, want %d",
					m.Placement.Name(), pred, res.Tuples, want)
			}
		}
	}
}

func TestRunProducesThroughput(t *testing.T) {
	rel := smallRelation(t, 0)
	m := buildRange(t, rel, DefaultConfig())
	mix := workload.LowLow(rel.Cardinality())
	res, err := m.Run(mix, RunSpec{MPL: 4, WarmupQueries: 20, MeasureQueries: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputQPS <= 0 {
		t.Fatalf("throughput = %g", res.ThroughputQPS)
	}
	if res.Completed != 100 {
		t.Fatalf("measured %d queries", res.Completed)
	}
	if res.MeanResponseMS <= 0 {
		t.Fatalf("response = %g", res.MeanResponseMS)
	}
	if res.MeanProcsUsed < 1 {
		t.Fatalf("procs/query = %g", res.MeanProcsUsed)
	}
	if res.DiskUtilization <= 0 || res.DiskUtilization > 1 {
		t.Fatalf("disk utilization = %g", res.DiskUtilization)
	}
}

func TestRunDeterministic(t *testing.T) {
	rel := smallRelation(t, 0)
	m := buildRange(t, rel, DefaultConfig())
	mix := workload.LowLow(rel.Cardinality())
	spec := RunSpec{MPL: 4, WarmupQueries: 10, MeasureQueries: 50}
	a, err := m.Run(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Run(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.ThroughputQPS != b.ThroughputQPS || a.MeanResponseMS != b.MeanResponseMS {
		t.Fatalf("replays differ: %v vs %v", a, b)
	}
}

func TestRunThroughputRisesWithMPL(t *testing.T) {
	rel := smallRelation(t, 0)
	m := buildRange(t, rel, DefaultConfig())
	mix := workload.LowLow(rel.Cardinality())
	one, err := m.Run(mix, RunSpec{MPL: 1, WarmupQueries: 10, MeasureQueries: 80})
	if err != nil {
		t.Fatal(err)
	}
	eight, err := m.Run(mix, RunSpec{MPL: 8, WarmupQueries: 10, MeasureQueries: 80})
	if err != nil {
		t.Fatal(err)
	}
	if eight.ThroughputQPS <= one.ThroughputQPS {
		t.Fatalf("MPL 8 throughput %.2f not above MPL 1 %.2f",
			eight.ThroughputQPS, one.ThroughputQPS)
	}
}

func TestRunSpecValidation(t *testing.T) {
	rel := smallRelation(t, 0)
	m := buildRange(t, rel, DefaultConfig())
	mix := workload.LowLow(rel.Cardinality())
	if _, err := m.Run(mix, RunSpec{MPL: 0, MeasureQueries: 10}); err == nil {
		t.Error("MPL 0 accepted")
	}
	if _, err := m.Run(mix, RunSpec{MPL: 1, MeasureQueries: 0}); err == nil {
		t.Error("zero measurement accepted")
	}
	if _, err := m.Run(mix, RunSpec{MPL: 1, WarmupQueries: -1, MeasureQueries: 1}); err == nil {
		t.Error("negative warmup accepted")
	}
	open := ServeSpec{Arrival: serve.ArrivalSpec{Kind: serve.Poisson, RateQPS: 100}, WarmupQueries: -1}
	if _, err := m.RunServe(mix, open); err == nil {
		t.Error("negative open warmup accepted")
	}
	open.WarmupQueries, open.MeasureQueries = 0, -1
	if _, err := m.RunServe(mix, open); err == nil {
		t.Error("negative open measurement accepted")
	}
}

// A closed run whose target the time bound cuts short reports how far it
// got, and a run without warm-up measures from the first instant.
func TestRunWindowBounds(t *testing.T) {
	rel := smallRelation(t, 0)
	m := buildRange(t, rel, DefaultConfig())
	defer m.Close()
	mix := workload.LowLow(rel.Cardinality())
	_, err := m.Run(mix, RunSpec{MPL: 1, WarmupQueries: 5, MeasureQueries: 1 << 20,
		MaxSimTime: 200 * sim.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "hit MaxSimTime with") ||
		!strings.Contains(err.Error(), fmt.Sprintf("/%d queries done", 5+1<<20)) {
		t.Fatalf("unreachable target: err = %v", err)
	}

	res, err := m.Run(mix, RunSpec{MPL: 2, WarmupQueries: 0, MeasureQueries: 40})
	if err != nil {
		t.Fatal(err)
	}
	if res.ElapsedSim != sim.Duration(m.Eng.Now()) {
		t.Fatalf("window %v does not start at t=0 (run ended at %v)", res.ElapsedSim, m.Eng.Now())
	}
	if res.Outcomes.Total() != 40 || res.Completed != 40 {
		t.Fatalf("window counted %d outcomes, %d completions; want 40",
			res.Outcomes.Total(), res.Completed)
	}
}

func TestBuildValidation(t *testing.T) {
	rel := smallRelation(t, 0)
	cfg := DefaultConfig()
	cfg.BufferPages = -1
	pl := core.NewRangeForRelation(rel, storage.Unique1, 8)
	if _, err := Build(rel, pl, cfg); err == nil {
		t.Error("negative buffer accepted")
	}
	bad := DefaultConfig()
	bad.HW.MIPS = 0
	if _, err := Build(rel, pl, bad); err == nil {
		t.Error("invalid hardware accepted")
	}
	// The TID index is a slice by TID: tuple i must have TID i.
	shuffled := &storage.Relation{Name: rel.Name, Tuples: slices.Clone(rel.Tuples)}
	shuffled.Tuples[0], shuffled.Tuples[1] = shuffled.Tuples[1], shuffled.Tuples[0]
	if _, err := NewImage(shuffled, pl, DefaultConfig()); err == nil {
		t.Error("relation whose TIDs are not positions accepted")
	}
}

func TestDefaultConfigSane(t *testing.T) {
	if clusteredAttr != storage.Unique2 {
		t.Fatal("the clustered attribute must be unique2 (B)")
	}
	if nonClusteredAttr != storage.Unique1 {
		t.Fatal("the non-clustered attribute must be unique1 (A)")
	}
}

func TestRunPerClassStats(t *testing.T) {
	rel := smallRelation(t, 0)
	m := buildRange(t, rel, DefaultConfig())
	mix := workload.LowLow(rel.Cardinality())
	res, err := m.Run(mix, RunSpec{MPL: 8, WarmupQueries: 20, MeasureQueries: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerClass) != 2 {
		t.Fatalf("per-class stats for %d classes, want 2", len(res.PerClass))
	}
	total := 0
	for name, cs := range res.PerClass {
		if cs.Completed <= 0 || cs.MeanResponseMS <= 0 || cs.MeanProcsUsed < 1 {
			t.Fatalf("class %s has degenerate stats: %+v", name, cs)
		}
		total += cs.Completed
	}
	if total != res.Completed {
		t.Fatalf("per-class counts sum to %d, total %d", total, res.Completed)
	}
	// Under range partitioning on A, QA localizes to 1 processor while QB
	// visits all 8 — the per-class breakdown must show it.
	qa, qb := res.PerClass["QA-low"], res.PerClass["QB-low"]
	if qa.MeanProcsUsed > 1.5 {
		t.Fatalf("QA used %.2f processors under range-on-A", qa.MeanProcsUsed)
	}
	if qb.MeanProcsUsed < 7 {
		t.Fatalf("QB used %.2f processors, want ~8", qb.MeanProcsUsed)
	}
}

// The image records the paper's physical design (Section 6) for every
// slot: its tuples sum to the relation, BERD's auxiliary entries cover every
// tuple once, and each fragment carries the clustered B index and the
// non-clustered A index.
func TestImageHoldingsLayout(t *testing.T) {
	rel := smallRelation(t, 0)
	m := buildBERD(t, rel, DefaultConfig())
	if len(m.img.rels) != 1 || m.img.rels[0].rel != rel {
		t.Fatalf("image holds %d relations, want only %s", len(m.img.rels), rel.Name)
	}
	tuples, aux := 0, 0
	for slot, s := range m.img.rels[0].primary {
		tuples += s.Frag.NumTuples()
		for _, a := range s.Aux {
			_, n, _ := a.Lookup(math.MinInt64, math.MaxInt64, nil)
			aux += n
		}
		b, a := s.Frag.Index(clusteredAttr), s.Frag.Index(nonClusteredAttr)
		if b == nil || !b.Clustered || a == nil || a.Clustered {
			t.Fatalf("slot %d indexes (B %+v, A %+v), want clustered B + non-clustered A", slot, b, a)
		}
	}
	if tuples != rel.Cardinality() {
		t.Fatalf("slots hold %d tuples, want %d", tuples, rel.Cardinality())
	}
	if aux != rel.Cardinality() {
		t.Fatalf("slots hold %d BERD aux entries, want %d", aux, rel.Cardinality())
	}
}

// Property: all five placements return identical result counts for random
// predicates — routing may differ, answers may not.
func TestStrategyAgreementProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rel := smallRelation(t, 0)
	cfg := DefaultConfig()
	mix := workload.LowLow(rel.Cardinality())
	specs := workload.EstimateSpecs(mix, rel.Cardinality(), cfg.HW, cfg.Costs)
	pp := workload.PlanParamsFor(rel.Cardinality(), testProcs, cfg.Costs)
	magicPl, err := core.BuildMAGIC(rel, []int{storage.Unique1, storage.Unique2}, specs, pp, nil)
	if err != nil {
		t.Fatal(err)
	}
	placements := []core.Placement{
		magicPl,
		core.NewBERDForRelation(rel, storage.Unique1, []int{storage.Unique2}, 8),
		core.NewRangeForRelation(rel, storage.Unique1, 8),
		core.NewHash(storage.Unique1, 8),
	}
	machines := make([]*Machine, len(placements))
	for i, pl := range placements {
		m, err := Build(rel, pl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = m
	}
	src := rng.NewSource("preds", 77)
	for trial := 0; trial < 12; trial++ {
		attr := storage.Unique1
		if trial%2 == 1 {
			attr = storage.Unique2
		}
		width := int64(1 + src.Intn(40))
		lo := int64(src.Intn(rel.Cardinality() - int(width)))
		pred := core.Predicate{Attr: attr, Lo: lo, Hi: lo + width - 1}
		var counts []int
		for _, m := range machines {
			m.reset()
			res := executeOne(t, m, pred, mix)
			counts = append(counts, res.Tuples)
		}
		for i := 1; i < len(counts); i++ {
			if counts[i] != counts[0] {
				t.Fatalf("pred %v: %s returned %d tuples, %s returned %d",
					pred, machines[i].Placement.Name(), counts[i],
					machines[0].Placement.Name(), counts[0])
			}
		}
		if counts[0] != int(width) {
			t.Fatalf("pred %v: got %d tuples, want %d", pred, counts[0], width)
		}
	}
}

func TestHashMachine(t *testing.T) {
	rel := smallRelation(t, 0)
	m, err := Build(rel, core.NewHash(storage.Unique1, 8), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(workload.LowLow(rel.Cardinality()), RunSpec{MPL: 4, WarmupQueries: 20, MeasureQueries: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputQPS <= 0 {
		t.Fatalf("hash: throughput %g", res.ThroughputQPS)
	}
}

// A predicate on a non-indexed attribute falls back to sequential scans on
// every processor and still returns the exact answer.
func TestSeqScanFallback(t *testing.T) {
	rel := smallRelation(t, 0)
	m := buildRange(t, rel, DefaultConfig())
	mix := workload.LowLow(rel.Cardinality())
	pred := core.Predicate{Attr: storage.Ten, Lo: 4, Hi: 4}
	want := 0
	for _, tup := range rel.Tuples {
		if tup.Attrs[storage.Ten] == 4 {
			want++
		}
	}
	res := executeOne(t, m, pred, mix)
	if res.Tuples != want {
		t.Fatalf("seq scan found %d tuples, want %d", res.Tuples, want)
	}
	if res.ProcessorsUsed != 8 {
		t.Fatalf("non-indexed predicate used %d processors, want all", res.ProcessorsUsed)
	}
	// Scans should exploit sequential I/O: a sequential read costs the arm
	// the page transfer alone, a random one adds at least the settle time
	// and a rotation (over twice the transfer on average), so mostly
	// sequential reads keep the mean arm time under two transfers.
	var busy float64
	var total int64
	for _, n := range m.Nodes {
		busy += n.Disk.BusySeconds()
		total += n.Disk.Reads()
	}
	xfer := m.Cfg.HW.PageTransferTime().Seconds()
	if total == 0 || busy/float64(total) > 2*xfer {
		t.Fatalf("scan reads not mostly sequential: %gs of arm time over %d reads", busy, total)
	}
}

func TestSimulateLoad(t *testing.T) {
	rel := smallRelation(t, 0)
	cfg := DefaultConfig()
	mix := workload.LowLow(rel.Cardinality())
	results := []LoadResult{}
	for _, build := range []func() *Machine{
		func() *Machine { return buildRange(t, rel, cfg) },
		func() *Machine { return buildBERD(t, rel, cfg) },
		func() *Machine { return buildMAGIC(t, rel, cfg, mix) },
	} {
		m := build()
		res, err := m.SimulateLoad()
		if err != nil {
			t.Fatal(err)
		}
		if res.Elapsed <= 0 || res.PagesWritten <= 0 || res.PacketsShipped <= 0 {
			t.Fatalf("%s: degenerate load result %+v", res.Strategy, res)
		}
		results = append(results, res)
		// The machine must still run queries after a load simulation.
		run, err := m.Run(mix, RunSpec{MPL: 2, WarmupQueries: 5, MeasureQueries: 30})
		if err != nil {
			t.Fatal(err)
		}
		if run.ThroughputQPS <= 0 {
			t.Fatal("machine unusable after load simulation")
		}
	}
	// Range scans once; BERD and MAGIC scan twice, so their loads cost more.
	if results[0].ScanPasses != 1 || results[1].ScanPasses != 2 || results[2].ScanPasses != 2 {
		t.Fatalf("scan passes = %d/%d/%d", results[0].ScanPasses, results[1].ScanPasses, results[2].ScanPasses)
	}
	// The exact loads, pinned: pages written are each slot's primary
	// fragment, index and auxiliary pages.
	want := []LoadResult{
		{Strategy: "range", ScanPasses: 1, Elapsed: 2276848153, PagesWritten: 160, PacketsShipped: 91},
		{Strategy: "berd", ScanPasses: 2, Elapsed: 3538389623, PagesWritten: 184, PacketsShipped: 91},
		{Strategy: "magic", ScanPasses: 2, Elapsed: 3493368791, PagesWritten: 160, PacketsShipped: 91},
	}
	for i := range want {
		if results[i] != want[i] {
			t.Errorf("load %d = %+v, want %+v", i, results[i], want[i])
		}
	}
	if results[1].Elapsed <= results[0].Elapsed {
		t.Fatalf("BERD load (%.2fs) should cost more than range (%.2fs)",
			results[1].Elapsed.Seconds(), results[0].Elapsed.Seconds())
	}
	// BERD writes the auxiliary pages on top of what range writes.
	if results[1].PagesWritten <= results[0].PagesWritten {
		t.Fatal("BERD should write more pages than range (auxiliary relations)")
	}
}

func TestMultiRelationMachineAndJoin(t *testing.T) {
	cfg := DefaultConfig()
	r := storage.GenerateWisconsin(storage.GenSpec{Name: "stock", Cardinality: 2000, Seed: 11})
	s := storage.GenerateWisconsin(storage.GenSpec{Name: "trades", Cardinality: 800, Seed: 12})
	stockPl, tradesPl := core.NewHash(storage.Unique1, 8), core.NewHash(storage.Unique1, 8)
	m, err := Build(r, stockPl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddRelation(s, tradesPl); err != nil {
		t.Fatal(err)
	}
	// Both relations are in the image, and the host routes both
	// (SetPlacement panics on a relation the host does not hold).
	if len(m.img.rels) != 2 || m.img.rels[0].rel != r || m.img.rels[1].rel != s {
		t.Fatalf("image holds %d relations, want stock and trades", len(m.img.rels))
	}
	m.Host.SetPlacement(r.Name, stockPl)
	m.Host.SetPlacement(s.Name, tradesPl)
	// A selection against the second relation by name.
	var sel exec.QueryResult
	mix := workload.LowLow(s.Cardinality())
	simtest.Spawn(m.Eng, "probe", func(p *simtest.Proc) {
		pred := core.Predicate{Attr: storage.Unique2, Lo: 100, Hi: 109}
		sel = submit(p, m.Host, plan.Select("trades", pred, mix.AccessChooser()(pred)))
		m.Eng.Stop()
	})
	if err := m.Eng.RunUntil(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if sel.Tuples != 10 {
		t.Fatalf("selection on trades got %d tuples", sel.Tuples)
	}
	// An equi-join between them (hash-on-key: co-located).
	m.reset()
	var jr exec.QueryResult
	simtest.Spawn(m.Eng, "joiner", func(p *simtest.Proc) {
		jr = submit(p, m.Host, plan.NewJoin(storage.Unique1, plan.NewScan("trades"), plan.NewScan("stock")))
		m.Eng.Stop()
	})
	if err := m.Eng.RunUntil(sim.Time(10 * 60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	// unique1 values 0..799 of trades each match exactly one stock tuple.
	if jr.Tuples != 800 {
		t.Fatalf("join matches = %d, want 800", jr.Tuples)
	}
	if !exec.Colocated(tradesPl, stockPl, storage.Unique1) {
		t.Fatal("hash-on-key join should be co-located")
	}
}

func TestAddRelationValidation(t *testing.T) {
	cfg := DefaultConfig()
	rel := smallRelation(t, 0)
	m := buildRange(t, rel, cfg)
	if err := m.AddRelation(rel, core.NewHash(storage.Unique1, 8)); err == nil {
		t.Error("duplicate relation name accepted")
	}
	other := storage.GenerateWisconsin(storage.GenSpec{Name: "other", Cardinality: 100, Seed: 3})
	if err := m.AddRelation(other, core.NewHash(storage.Unique1, 4)); err == nil {
		t.Error("mismatched processor count accepted")
	}
}

func TestRunNodeStatsAndSkew(t *testing.T) {
	rel := smallRelation(t, 0)
	m := buildRange(t, rel, DefaultConfig())
	mix := workload.LowLow(rel.Cardinality())
	res, err := m.Run(mix, RunSpec{MPL: 4, WarmupQueries: 20, MeasureQueries: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NodeStats) != 8 {
		t.Fatalf("NodeStats has %d entries, want 8", len(res.NodeStats))
	}
	var diskSum float64
	for i, u := range res.NodeStats {
		if u.Node != i {
			t.Errorf("NodeStats[%d].Node = %d", i, u.Node)
		}
		if u.DiskUtil < 0 || u.DiskUtil > 1 || u.CPUUtil < 0 || u.CPUUtil > 1 {
			t.Errorf("node %d utilization out of range: cpu %g disk %g", i, u.CPUUtil, u.DiskUtil)
		}
		diskSum += u.DiskUtil
	}
	if got := diskSum / 8; !almostEq(got, res.DiskUtilization, 1e-9) {
		t.Errorf("per-node disk mean %g != machine mean %g", got, res.DiskUtilization)
	}
	if res.DiskSkew < 1 || res.CPUSkew < 1 {
		t.Errorf("skew ratios below 1: disk %g cpu %g", res.DiskSkew, res.CPUSkew)
	}
}

func almostEq(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}
