package serve

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestArrivalKindStringAndParse(t *testing.T) {
	for _, k := range []ArrivalKind{Poisson, Bursty, Diurnal} {
		got, err := ParseArrivalKind(k.String())
		if err != nil {
			t.Fatalf("ParseArrivalKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("round-trip %v -> %q -> %v", k, k.String(), got)
		}
	}
	if _, err := ParseArrivalKind("nope"); err == nil {
		t.Fatalf("ParseArrivalKind(nope) should fail")
	}
	if s := ArrivalKind(99).String(); s != "arrival(99)" {
		t.Fatalf("out-of-range String: %q", s)
	}
}

func TestArrivalSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec ArrivalSpec
		ok   bool
	}{
		{"poisson ok", ArrivalSpec{Kind: Poisson, RateQPS: 10}, true},
		{"zero rate", ArrivalSpec{Kind: Poisson, RateQPS: 0}, false},
		{"negative rate", ArrivalSpec{Kind: Poisson, RateQPS: -1}, false},
		{"bad kind", ArrivalSpec{Kind: ArrivalKind(7), RateQPS: 1}, false},
		{"bursty ok", ArrivalSpec{Kind: Bursty, RateQPS: 10}, true},
		{"diurnal ok", ArrivalSpec{Kind: Diurnal, RateQPS: 10}, true},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// meanRate draws n gaps and returns the empirical arrival rate in QPS.
func meanRate(t *testing.T, spec ArrivalSpec, n int) float64 {
	t.Helper()
	a, err := NewArrivals(spec, rng.NewSource("arr", 42))
	if err != nil {
		t.Fatalf("NewArrivals: %v", err)
	}
	var elapsed float64
	for i := 0; i < n; i++ {
		g := a.Next()
		if g < 1 {
			t.Fatalf("gap %d below 1ns: %d", i, g)
		}
		elapsed += float64(g)
	}
	return float64(n) / (elapsed / 1e9)
}

// Each arrival process must honor its long-run mean rate: that is the
// contract that makes "offered load" comparable across kinds.
func TestArrivalMeanRates(t *testing.T) {
	for _, spec := range []ArrivalSpec{
		{Kind: Poisson, RateQPS: 500},
		// The bursty estimate's error shrinks with the number of on/off
		// cycles drawn, not of arrivals: at 25 qps a 2 s cycle holds 50
		// arrivals, so the 200000 gaps span about 4000 cycles. At 500 qps
		// they would span 200, too few for the 5% tolerance.
		{Kind: Bursty, RateQPS: 25},
		{Kind: Diurnal, RateQPS: 500},
	} {
		got := meanRate(t, spec, 200000)
		if math.Abs(got-spec.RateQPS)/spec.RateQPS > 0.05 {
			t.Errorf("%v: empirical rate %.1f qps, want %.1f +/- 5%%", spec.Kind, got, spec.RateQPS)
		}
	}
}

// The bursty process must actually burst: its inter-arrival squared
// coefficient of variation exceeds the Poisson value of 1.
func TestBurstyIsBurstier(t *testing.T) {
	squaredCV := func(spec ArrivalSpec) float64 {
		a, err := NewArrivals(spec, rng.NewSource("arr", 7))
		if err != nil {
			t.Fatalf("NewArrivals: %v", err)
		}
		var n, sum, sum2 float64
		for i := 0; i < 100000; i++ {
			g := float64(a.Next())
			n++
			sum += g
			sum2 += g * g
		}
		mean := sum / n
		return (sum2/n - mean*mean) / (mean * mean)
	}
	poisson := squaredCV(ArrivalSpec{Kind: Poisson, RateQPS: 500})
	bursty := squaredCV(ArrivalSpec{Kind: Bursty, RateQPS: 500})
	if bursty < poisson*1.5 {
		t.Fatalf("bursty scv %.2f not clearly above poisson scv %.2f", bursty, poisson)
	}
}

// The diurnal process must track its trace: over whole periods each slot
// takes its share of the trace's total weight, the peak slot 20 times the
// trough slots'.
func TestDiurnalFollowsTrace(t *testing.T) {
	const periods = 10
	spec := ArrivalSpec{Kind: Diurnal, RateQPS: 500}
	a, err := NewArrivals(spec, rng.NewSource("arr", 11))
	if err != nil {
		t.Fatalf("NewArrivals: %v", err)
	}
	counts := make([]int, len(diurnalTrace))
	slotLen := float64(diurnalPeriod) / float64(len(diurnalTrace))
	total := 0
	for clock := float64(a.Next()); clock < periods*float64(diurnalPeriod); clock += float64(a.Next()) {
		pos := math.Mod(clock, float64(diurnalPeriod))
		slot := min(int(pos/slotLen), len(counts)-1)
		counts[slot]++
		total++
	}
	var weight float64
	for _, v := range diurnalTrace {
		weight += v
	}
	// The trough slot expects about 1200 arrivals, so 15% is over four
	// standard deviations.
	for i, v := range diurnalTrace {
		want := float64(total) * v / weight
		if math.Abs(float64(counts[i])-want)/want > 0.15 {
			t.Errorf("slot %d: %d arrivals, want %.0f +/- 15%% (trace weight %g)", i, counts[i], want, v)
		}
	}
}

// Arrivals must be a pure function of (spec, seed): same inputs, same gaps.
func TestArrivalsDeterministic(t *testing.T) {
	for _, kind := range []ArrivalKind{Poisson, Bursty, Diurnal} {
		spec := ArrivalSpec{Kind: kind, RateQPS: 300}
		a1, _ := NewArrivals(spec, rng.NewSource("arr", 9))
		a2, _ := NewArrivals(spec, rng.NewSource("arr", 9))
		for i := 0; i < 10000; i++ {
			g1, g2 := a1.Next(), a2.Next()
			if g1 != g2 {
				t.Fatalf("%v: gap %d diverged: %d vs %d", kind, i, g1, g2)
			}
		}
	}
}
