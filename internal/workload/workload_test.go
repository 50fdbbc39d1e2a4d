package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/storage"
)

func TestMixDefinitionsMatchSection6(t *testing.T) {
	const card = 100000
	cases := []struct {
		mix      Mix
		qaTuples int
		qbTuples int
	}{
		{LowLow(card), 1, 10},
		{LowLowWider(card), 1, 20},
		{LowModerate(card), 1, 300},
		{ModerateLow(card), 30, 10},
		{ModerateModerate(card), 30, 300},
	}
	for _, c := range cases {
		if len(c.mix.Classes) != 2 {
			t.Fatalf("%s: %d classes", c.mix.Name, len(c.mix.Classes))
		}
		qa, qb := c.mix.Classes[0], c.mix.Classes[1]
		if qa.Attr != storage.Unique1 || qa.Access != plan.AccessNonClustered {
			t.Fatalf("%s: QA misconfigured: %+v", c.mix.Name, qa)
		}
		if qb.Attr != storage.Unique2 || qb.Access != plan.AccessClustered {
			t.Fatalf("%s: QB misconfigured: %+v", c.mix.Name, qb)
		}
		if qa.Tuples != c.qaTuples || qb.Tuples != c.qbTuples {
			t.Fatalf("%s: tuples = %d/%d, want %d/%d",
				c.mix.Name, qa.Tuples, qb.Tuples, c.qaTuples, c.qbTuples)
		}
		if qa.Frequency != 0.5 || qb.Frequency != 0.5 {
			t.Fatalf("%s: frequencies must be 50/50", c.mix.Name)
		}
	}
}

func TestMixCountsFixedAcrossCardinality(t *testing.T) {
	// The paper's absolute result cardinalities hold at any relation size
	// (they drive fan-out and BERD's per-tuple fetches), clamped for tiny
	// relations.
	m := ModerateModerate(10000)
	if m.Classes[0].Tuples != 30 || m.Classes[1].Tuples != 300 {
		t.Fatalf("tuples = %d/%d", m.Classes[0].Tuples, m.Classes[1].Tuples)
	}
	tiny := ModerateModerate(100)
	if tiny.Classes[1].Tuples != 100 {
		t.Fatalf("clamped tuples = %d", tiny.Classes[1].Tuples)
	}
	for _, c := range LowLow(100).Classes {
		if c.Tuples < 1 {
			t.Fatalf("class %s has %d tuples", c.Name, c.Tuples)
		}
	}
}

func TestSamplePredicateWidth(t *testing.T) {
	const card = 10000
	m := LowModerate(card)
	src := rng.NewSource("t", 3)
	sawQA, sawQB := false, false
	for i := 0; i < 500; i++ {
		pred, cls := m.Sample(src, card)
		want := int64(cls.Tuples)
		if pred.Hi-pred.Lo+1 != want {
			t.Fatalf("class %s: predicate width %d, want %d", cls.Name, pred.Hi-pred.Lo+1, want)
		}
		if pred.Lo < 0 || pred.Hi >= card {
			t.Fatalf("predicate [%d,%d] outside domain", pred.Lo, pred.Hi)
		}
		switch cls.Attr {
		case storage.Unique1:
			sawQA = true
		case storage.Unique2:
			sawQB = true
		}
	}
	if !sawQA || !sawQB {
		t.Fatal("sampling never produced one of the classes")
	}
}

func TestSampleFrequencies(t *testing.T) {
	const card = 10000
	m := LowLow(card)
	src := rng.NewSource("t", 7)
	qa := 0
	const n = 20000
	for i := 0; i < n; i++ {
		_, cls := m.Sample(src, card)
		if cls.Attr == storage.Unique1 {
			qa++
		}
	}
	frac := float64(qa) / n
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("QA fraction = %g, want ~0.5", frac)
	}
}

func TestAccessChooser(t *testing.T) {
	m := LowLow(1000)
	choose := m.AccessChooser()
	if choose(core.Predicate{Attr: storage.Unique1}) != plan.AccessNonClustered {
		t.Fatal("A should use the non-clustered index")
	}
	if choose(core.Predicate{Attr: storage.Unique2}) != plan.AccessClustered {
		t.Fatal("B should use the clustered index")
	}
	if choose(core.Predicate{Attr: storage.Ten}) != plan.AccessSeqScan {
		t.Fatal("non-indexed attributes must fall back to a sequential scan")
	}
}

func TestEstimateSpecs(t *testing.T) {
	const card = 100000
	hwp := hw.DefaultParams()
	costs := exec.DefaultCosts()
	specs := EstimateSpecs(LowModerate(card), card, hwp, costs)
	if len(specs) != 2 {
		t.Fatalf("%d specs", len(specs))
	}
	qa, qb := specs[0], specs[1]
	if qa.TuplesPerQuery != 1 || qb.TuplesPerQuery != 300 {
		t.Fatalf("tuples = %g/%g", qa.TuplesPerQuery, qb.TuplesPerQuery)
	}
	// A single-tuple non-clustered query: one random I/O ~ 2+8.34+4.34 ms.
	if qa.DiskMS < 10 || qa.DiskMS > 20 {
		t.Fatalf("QA-low disk estimate = %gms", qa.DiskMS)
	}
	// The moderate clustered query must be far more expensive overall.
	if qb.DiskMS+qb.CPUms+qb.NetMS < 3*(qa.DiskMS+qa.CPUms+qa.NetMS) {
		t.Fatal("moderate query should dominate the low query")
	}
	// All components positive.
	for _, s := range specs {
		if s.CPUms <= 0 || s.DiskMS <= 0 || s.NetMS <= 0 {
			t.Fatalf("spec %s has non-positive resources: %+v", s.Name, s)
		}
	}
}

// The planner fed with estimated specs should put Mi for a moderate query
// well above Mi for a low query — the property the paper's grid shapes
// depend on.
func TestEstimatedMiOrdering(t *testing.T) {
	const card = 100000
	hwp := hw.DefaultParams()
	costs := exec.DefaultCosts()
	pp := PlanParamsFor(card, 32, costs)
	plan, err := core.ComputePlan(EstimateSpecs(LowModerate(card), card, hwp, costs), pp)
	if err != nil {
		t.Fatal(err)
	}
	miA := plan.Mi[storage.Unique1]
	miB := plan.Mi[storage.Unique2]
	if miB < 2*miA {
		t.Fatalf("Mi(B-moderate)=%g should dwarf Mi(A-low)=%g", miB, miA)
	}
	if miA < 1 || miB > 32 {
		t.Fatalf("Mi out of range: %g, %g", miA, miB)
	}
}

func TestSampleValidation(t *testing.T) {
	src := rng.NewSource("t", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized class did not panic")
		}
	}()
	m := Mix{Name: "bad", Classes: []Class{{Name: "x", Tuples: 100, Frequency: 1}}}
	m.Sample(src, 10)
}

func TestHotSpotSampling(t *testing.T) {
	const card = 10000
	m := LowLow(card).WithHotSpot(0.8, 0.1)
	src := rng.NewSource("t", 5)
	inHot := 0
	const n = 10000
	for i := 0; i < n; i++ {
		pred, _ := m.Sample(src, card)
		if pred.Lo < card/10 {
			inHot++
		}
	}
	frac := float64(inHot) / n
	// 80% targeted + ~10% of the uniform remainder ~= 82%.
	if frac < 0.75 || frac > 0.9 {
		t.Fatalf("hot-range fraction = %g, want ~0.82", frac)
	}
	if m.Name != "low-low+hot80/10" {
		t.Fatalf("name = %q", m.Name)
	}
}

func TestHotSpotValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad hot-spot spec accepted")
		}
	}()
	LowLow(100).WithHotSpot(1.5, 0.1)
}

func TestUniformMixUnaffectedByHotFields(t *testing.T) {
	const card = 10000
	m := LowLow(card)
	src := rng.NewSource("t", 6)
	low := 0
	for i := 0; i < 10000; i++ {
		pred, _ := m.Sample(src, card)
		if pred.Lo < card/10 {
			low++
		}
	}
	if frac := float64(low) / 10000; frac < 0.07 || frac > 0.13 {
		t.Fatalf("uniform sampling skewed: %g in first decile", frac)
	}
}
