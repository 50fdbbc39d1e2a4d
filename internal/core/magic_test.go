package core

import (
	"testing"

	"repro/internal/storage"
)

// magicWorkload mirrors the paper's low-low mix scaled to a small relation:
// a single-tuple query on A and a 10-tuple clustered range on B, with
// resource numbers that put Mi in a realistic band.
func magicWorkload() []QuerySpec {
	return []QuerySpec{
		{Name: "QA", Attr: storage.Unique1, TuplesPerQuery: 1, Frequency: 0.5,
			CPUms: 6, DiskMS: 30, NetMS: 2},
		{Name: "QB", Attr: storage.Unique2, TuplesPerQuery: 10, Frequency: 0.5,
			CPUms: 10, DiskMS: 30, NetMS: 2},
	}
}

func buildTestMAGIC(t *testing.T, n, corrWindow, p int, opts *MagicOptions) (*storage.Relation, *MAGICPlacement) {
	t.Helper()
	rel := testRelation(t, n, corrWindow)
	pp := PlanParams{CPms: 1.7, CSms: 0.003, Processors: p, Cardinality: n}
	m, err := BuildMAGIC(rel, []int{storage.Unique1, storage.Unique2}, magicWorkload(), pp, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rel, m
}

// checkMAGICGrid validates the sealed grid's structure and, since Seal
// dropped the grid's own copy of the points, checks against the relation
// that every tuple sits in exactly the cell it locates to: BuildMAGIC
// inserts tuple (i*stride) mod n as id i.
func checkMAGICGrid(t *testing.T, rel *storage.Relation, m *MAGICPlacement) {
	t.Helper()
	g := m.Grid()
	if err := g.Validate(); err != nil {
		t.Fatalf("grid invalid: %v", err)
	}
	n := len(rel.Tuples)
	stride := coprimeStride(n)
	for flat := 0; flat < g.NumCells(); flat++ {
		for _, id := range g.Cell(flat) {
			tu := &rel.Tuples[id*stride%n]
			if got := g.CellOf(tu.Attrs[:], m.Attrs()); got != flat {
				t.Fatalf("tuple %d stored in cell %d but locates to %d", id*stride%n, flat, got)
			}
		}
	}
}

func TestBuildMAGICBasics(t *testing.T) {
	rel, m := buildTestMAGIC(t, 10000, 0, 32, nil)
	if m.Name() != "magic" || m.Processors() != 32 {
		t.Fatal("metadata wrong")
	}
	checkMAGICGrid(t, rel, m)
	dims := m.Dims()
	if len(dims) != 2 || dims[0] < 2 || dims[1] < 2 {
		t.Fatalf("directory dims = %v", dims)
	}
	if m.Grid().NumCells() < 32 {
		t.Fatalf("only %d cells for 32 processors", m.Grid().NumCells())
	}
	// Every tuple's home is a valid processor and all processors hold data.
	seen := make([]int, 32)
	for _, tup := range rel.Tuples {
		seen[m.HomeOf(&tup)]++
	}
	for p, c := range seen {
		if c == 0 {
			t.Fatalf("processor %d holds no tuples", p)
		}
	}
}

func TestMAGICLoadBalanced(t *testing.T) {
	_, m := buildTestMAGIC(t, 10000, 0, 32, nil)
	min, max, mean := LoadSpread(m.Owners(), m.CellCounts(), 32)
	if float64(max) > 1.4*mean || float64(min) < 0.6*mean {
		t.Fatalf("load spread min=%d max=%d mean=%g", min, max, mean)
	}
}

func TestMAGICRoutesPartitioningAttributesToSubsets(t *testing.T) {
	_, m := buildTestMAGIC(t, 10000, 0, 32, nil)
	qa := m.Route(Predicate{Attr: storage.Unique1, Lo: 5000, Hi: 5000})
	if len(qa.Participants) == 0 || len(qa.Participants) >= 32 {
		t.Fatalf("QA routed to %d processors", len(qa.Participants))
	}
	if qa.EntriesSearched == 0 {
		t.Fatal("directory search cost not reported")
	}
	qb := m.Route(Predicate{Attr: storage.Unique2, Lo: 5000, Hi: 5009})
	if len(qb.Participants) == 0 || len(qb.Participants) >= 32 {
		t.Fatalf("QB routed to %d processors", len(qb.Participants))
	}
	other := m.Route(Predicate{Attr: storage.Ten, Lo: 5, Hi: 5})
	if len(other.Participants) != 32 {
		t.Fatal("non-partitioning attribute must visit all processors")
	}
}

// Routing must be sound: the participants include the home of every tuple
// matching the predicate.
func TestMAGICRoutingSound(t *testing.T) {
	rel, m := buildTestMAGIC(t, 5000, 0, 16, nil)
	for _, pred := range []Predicate{
		{Attr: storage.Unique1, Lo: 100, Hi: 150},
		{Attr: storage.Unique2, Lo: 3000, Hi: 3100},
		{Attr: storage.Unique1, Lo: 4999, Hi: 4999},
	} {
		route := m.Route(pred)
		parts := map[int]bool{}
		for _, p := range route.Participants {
			parts[p] = true
		}
		for _, tup := range rel.Tuples {
			v := tup.Attrs[pred.Attr]
			if v >= pred.Lo && v <= pred.Hi && !parts[m.HomeOf(&tup)] {
				t.Fatalf("pred %v: tuple %d on processor %d not routed to",
					pred, tup.TID, m.HomeOf(&tup))
			}
		}
	}
}

// With identical partitioning attributes (Section 4 worst case), routing on
// either attribute should localize to very few processors because only the
// diagonal cells are non-empty.
func TestMAGICCorrelatedLocalization(t *testing.T) {
	_, m := buildTestMAGIC(t, 5000, 1, 32, nil)
	qa := m.Route(Predicate{Attr: storage.Unique1, Lo: 2500, Hi: 2500})
	if len(qa.Participants) > 2 {
		t.Fatalf("correlated equality routed to %d processors", len(qa.Participants))
	}
	qb := m.Route(Predicate{Attr: storage.Unique2, Lo: 2500, Hi: 2509})
	if len(qb.Participants) > 3 {
		t.Fatalf("correlated 10-tuple range routed to %d processors", len(qb.Participants))
	}
}

// Section 4's balance claim for the worst case: after rebalancing, the
// tuple-count difference between any two of the 32 processors stays small.
func TestMAGICWorstCaseRebalanced(t *testing.T) {
	_, m := buildTestMAGIC(t, 10000, 1, 32, nil)
	min, max, _ := LoadSpread(m.Owners(), m.CellCounts(), 32)
	if min == 0 {
		t.Fatal("empty processors remain after rebalancing identical attributes")
	}
	spread := float64(max-min) / float64(max)
	if spread > 0.30 {
		t.Fatalf("worst-case spread = %.0f%%, paper reports ~20%%", spread*100)
	}
	if m.RebalanceSwaps() == 0 {
		t.Fatal("rebalancer did nothing on worst-case data")
	}
}

// Ablation: without rebalancing, identical attributes leave a visibly more
// skewed assignment than the full pipeline (the paper reports 12 of 32
// processors empty before its heuristic runs).
func TestMAGICWorstCaseWithoutRebalanceIsSkewed(t *testing.T) {
	_, plain := buildTestMAGIC(t, 10000, 1, 32, &MagicOptions{DisableRebalance: true})
	minP, maxP, _ := LoadSpread(plain.Owners(), plain.CellCounts(), 32)
	_, rebal := buildTestMAGIC(t, 10000, 1, 32, nil)
	minR, maxR, _ := LoadSpread(rebal.Owners(), rebal.CellCounts(), 32)
	spreadPlain := float64(maxP-minP) / float64(maxP)
	spreadRebal := float64(maxR-minR) / float64(maxR)
	if spreadRebal > spreadPlain {
		t.Fatalf("rebalancing made the spread worse: %.2f -> %.2f", spreadPlain, spreadRebal)
	}
	if spreadPlain < 0.25 {
		t.Fatalf("diagonal data without rebalancing should be skewed, spread = %.2f", spreadPlain)
	}
}

func TestMAGICRoundRobinAblation(t *testing.T) {
	_, m := buildTestMAGIC(t, 5000, 0, 16, &MagicOptions{RoundRobinAssign: true})
	// Round-robin ignores Mi: slices see far more distinct processors, so
	// queries fan out much wider than the planned Mi.
	qa := m.Route(Predicate{Attr: storage.Unique1, Lo: 2500, Hi: 2500})
	tiled, err := BuildMAGIC(testRelation(t, 5000, 0), []int{storage.Unique1, storage.Unique2},
		magicWorkload(), PlanParams{CPms: 1.7, CSms: 0.003, Processors: 16, Cardinality: 5000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	qaTiled := tiled.Route(Predicate{Attr: storage.Unique1, Lo: 2500, Hi: 2500})
	if len(qa.Participants) < len(qaTiled.Participants) {
		t.Fatalf("round-robin (%d) should fan out at least as wide as tiled (%d)",
			len(qa.Participants), len(qaTiled.Participants))
	}
}

func TestBuildMAGICErrors(t *testing.T) {
	rel := testRelation(t, 1000, 0)
	pp := PlanParams{CPms: 1.7, CSms: 0.003, Processors: 8, Cardinality: 1000}
	if _, err := BuildMAGIC(rel, nil, magicWorkload(), pp, nil); err == nil {
		t.Error("no attributes accepted")
	}
	if _, err := BuildMAGIC(rel, []int{storage.Unique1, storage.Unique1}, magicWorkload(), pp, nil); err == nil {
		t.Error("duplicate attributes accepted")
	}
	bad := pp
	bad.Cardinality = 5
	if _, err := BuildMAGIC(rel, []int{storage.Unique1}, magicWorkload(), bad, nil); err == nil {
		t.Error("cardinality mismatch accepted")
	}
	// Workload that references neither partitioning attribute.
	qs := []QuerySpec{{Name: "Q", Attr: storage.Ten, TuplesPerQuery: 1, Frequency: 1, CPUms: 1}}
	if _, err := BuildMAGIC(rel, []int{storage.Unique1, storage.Unique2}, qs, pp, nil); err == nil {
		t.Error("workload without partitioning attributes accepted")
	}
}

func TestMAGICSingleAttributeDegeneratesToRangeLike(t *testing.T) {
	rel := testRelation(t, 2000, 0)
	pp := PlanParams{CPms: 1.7, CSms: 0.003, Processors: 8, Cardinality: 2000}
	qs := []QuerySpec{{Name: "QA", Attr: storage.Unique1, TuplesPerQuery: 1,
		Frequency: 1, CPUms: 6, DiskMS: 30, NetMS: 2}}
	m, err := BuildMAGIC(rel, []int{storage.Unique1}, qs, pp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Dims()) != 1 {
		t.Fatalf("dims = %v", m.Dims())
	}
	route := m.Route(Predicate{Attr: storage.Unique1, Lo: 1000, Hi: 1000})
	if len(route.Participants) != 1 {
		t.Fatalf("1D equality routed to %v", route.Participants)
	}
}

func TestMAGICPlanExposed(t *testing.T) {
	_, m := buildTestMAGIC(t, 5000, 0, 16, nil)
	p := m.Plan()
	if p.FC <= 0 || p.M <= 0 || len(p.Mi) != 2 {
		t.Fatalf("plan = %+v", p)
	}
}

// MAGIC generalizes to K=3 partitioning attributes: the grid gains a third
// dimension and routing on any of the three localizes.
func TestMAGICThreeAttributes(t *testing.T) {
	rel := testRelation(t, 4000, 0)
	pp := PlanParams{CPms: 1.7, CSms: 0.003, Processors: 16, Cardinality: 4000}
	qs := []QuerySpec{
		{Name: "QA", Attr: storage.Unique1, TuplesPerQuery: 1, Frequency: 0.4,
			CPUms: 6, DiskMS: 30, NetMS: 2},
		{Name: "QB", Attr: storage.Unique2, TuplesPerQuery: 10, Frequency: 0.4,
			CPUms: 10, DiskMS: 30, NetMS: 2},
		{Name: "QC", Attr: storage.OnePercent, TuplesPerQuery: 40, Frequency: 0.2,
			CPUms: 12, DiskMS: 40, NetMS: 3},
	}
	m, err := BuildMAGIC(rel, []int{storage.Unique1, storage.Unique2, storage.OnePercent}, qs, pp, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkMAGICGrid(t, rel, m)
	if got := len(m.Dims()); got != 3 {
		t.Fatalf("dims = %v", m.Dims())
	}
	// Routing on each partitioning attribute localizes to a subset; the
	// OnePercent attribute has only 100 distinct values (duplicates).
	for _, pred := range []Predicate{
		{Attr: storage.Unique1, Lo: 2000, Hi: 2000},
		{Attr: storage.Unique2, Lo: 1000, Hi: 1009},
		{Attr: storage.OnePercent, Lo: 50, Hi: 50},
	} {
		route := m.Route(pred)
		if len(route.Participants) == 0 {
			t.Fatalf("pred %v routed nowhere", pred)
		}
	}
	// Soundness on the duplicated attribute.
	route := m.Route(Predicate{Attr: storage.OnePercent, Lo: 7, Hi: 7})
	parts := map[int]bool{}
	for _, p := range route.Participants {
		parts[p] = true
	}
	for _, tup := range rel.Tuples {
		if tup.Attrs[storage.OnePercent] == 7 && !parts[m.HomeOf(&tup)] {
			t.Fatalf("tuple %d with onePercent=7 on unrouted processor", tup.TID)
		}
	}
}
