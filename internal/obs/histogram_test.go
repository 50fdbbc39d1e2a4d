package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	// Values inside bucket i must map to i; the bucket covers
	// [Growth^i, Growth^(i+1)). Probe well inside the interval (exact edges
	// are at the mercy of floating-point log rounding, which only shifts a
	// boundary sample to the adjacent bucket — within the error bound).
	for _, i := range []int{-50, -10, -1, 0, 1, 10, 100, 300} {
		lo := math.Pow(Growth, float64(i))
		hi := math.Pow(Growth, float64(i+1))
		mid := (lo + hi) / 2
		if got := bucketIndex(mid); got != i {
			t.Errorf("bucketIndex(%g) = %d, want %d", mid, got, i)
		}
	}
	// A bucket's harmonic midpoint estimate is within the bound of every
	// value in the bucket.
	h := NewHistogram()
	h.Observe(100)
	got := h.Quantile(50)
	if rel := math.Abs(got-100) / 100; rel > MaxQuantileRelError {
		t.Errorf("single-sample quantile = %g, rel error %g > %g", got, rel, MaxQuantileRelError)
	}
}

func TestHistogramZeroBucket(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(-3)
	h.Observe(5)
	if h.N() != 3 {
		t.Fatalf("n = %d", h.N())
	}
	if got := h.Quantile(0); got != 0 {
		t.Errorf("p0 = %g, want exact 0", got)
	}
	if got := h.Quantile(40); got != 0 {
		t.Errorf("p40 = %g, want exact 0 (2 of 3 samples non-positive)", got)
	}
	if got := h.Quantile(100); math.Abs(got-5)/5 > MaxQuantileRelError {
		t.Errorf("p100 = %g, want ~5", got)
	}
	if h.Stats().Min != -3 || h.Stats().Max != 5 {
		t.Errorf("min/max = %g/%g", h.Stats().Min, h.Stats().Max)
	}
}

func TestHistogramQuantileErrorBound(t *testing.T) {
	// Against an exact sort of the same samples, every quantile estimate
	// must be within MaxQuantileRelError of the nearest-rank order
	// statistic. Mixed scales stress many buckets at once.
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram()
	var samples []float64
	for i := 0; i < 20000; i++ {
		v := math.Exp(rng.Float64()*12 - 3) // ~e^-3 .. e^9, log-uniform
		samples = append(samples, v)
		h.Observe(v)
	}
	sort.Float64s(samples)
	for _, p := range []float64{0, 1, 5, 10, 25, 50, 75, 90, 95, 99, 99.9, 100} {
		exact := samples[int64(p/100*float64(len(samples)-1))]
		got := h.Quantile(p)
		if rel := math.Abs(got-exact) / exact; rel > MaxQuantileRelError+1e-12 {
			t.Errorf("p%g: estimate %g vs exact %g, rel error %g > %g",
				p, got, exact, rel, MaxQuantileRelError)
		}
	}
	// The mean is tracked exactly, not from buckets.
	var sum float64
	for _, v := range samples {
		sum += v
	}
	if got := h.Stats().Mean; math.Abs(got-sum/float64(len(samples))) > 1e-9*sum {
		t.Errorf("mean = %g, want %g", got, sum/float64(len(samples)))
	}
}

func TestHistogramMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	parts := make([][]float64, 3)
	for i := range parts {
		for j := 0; j < 500; j++ {
			parts[i] = append(parts[i], math.Exp(rng.Float64()*8-2))
		}
	}
	fill := func(vals ...[]float64) *Histogram {
		h := NewHistogram()
		for _, vs := range vals {
			for _, v := range vs {
				h.Observe(v)
			}
		}
		return h
	}
	// (a+b)+c
	left := fill(parts[0])
	left.Merge(fill(parts[1]))
	left.Merge(fill(parts[2]))
	// a+(b+c)
	bc := fill(parts[1])
	bc.Merge(fill(parts[2]))
	right := fill(parts[0])
	right.Merge(bc)
	// direct
	direct := fill(parts[0], parts[1], parts[2])

	for _, p := range []float64{0, 25, 50, 90, 99, 100} {
		a, b, c := left.Quantile(p), right.Quantile(p), direct.Quantile(p)
		if a != b || b != c {
			t.Errorf("p%g differs by merge order: %g / %g / %g", p, a, b, c)
		}
	}
	if left.N() != direct.N() || right.N() != direct.N() {
		t.Errorf("n differs: %d / %d / %d", left.N(), right.N(), direct.N())
	}
	if left.Stats().Min != direct.Stats().Min || left.Stats().Max != direct.Stats().Max {
		t.Errorf("min/max differ after merge")
	}
}

func TestHistogramMergeEmptySides(t *testing.T) {
	a := NewHistogram()
	a.Observe(2)
	a.Merge(NewHistogram()) // non-empty <- empty
	if a.N() != 1 || a.Stats().Min != 2 || a.Stats().Max != 2 {
		t.Fatal("merge of empty changed state")
	}
	b := NewHistogram()
	b.Merge(a) // empty <- non-empty
	if b.N() != 1 || b.Stats().Min != 2 || b.Stats().Max != 2 {
		t.Fatal("merge into empty lost state")
	}
	a.Merge(nil) // nil other is a no-op
	if a.N() != 1 {
		t.Fatal("merge of nil changed state")
	}
}

func TestHistogramNilAndReset(t *testing.T) {
	var h *Histogram
	h.Observe(1) // no-op, no panic
	h.Merge(NewHistogram())
	h.Reset()
	if h.N() != 0 || h.Stats().Mean != 0 || h.Quantile(50) != 0 {
		t.Fatal("nil histogram not zero-valued")
	}
	if (h.Stats() != HistogramStats{}) {
		t.Fatal("nil Stats not zero")
	}

	g := NewHistogram()
	g.Observe(10)
	g.Observe(20)
	g.Reset()
	if g.N() != 0 || g.Stats().Mean != 0 || g.Stats().Max != 0 {
		t.Fatal("reset did not clear")
	}
	g.Observe(7) // handle stays usable
	if g.N() != 1 || g.Stats().Min != 7 {
		t.Fatal("histogram unusable after reset")
	}
}

func TestHistogramStats(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	s := h.Stats()
	if s.N != 1000 || s.Min != 1 || s.Max != 1000 {
		t.Fatalf("stats header wrong: %+v", s)
	}
	checks := []struct {
		got, exact float64
	}{{s.P50, 500}, {s.P90, 900}, {s.P99, 990}}
	for _, c := range checks {
		if math.Abs(c.got-c.exact)/c.exact > MaxQuantileRelError+1e-12 {
			t.Errorf("quantile %g too far from %g", c.got, c.exact)
		}
	}
	if math.Abs(s.Mean-500.5) > 1e-9 {
		t.Errorf("mean = %g", s.Mean)
	}
}

func TestHistogramQuantileNegativeSamples(t *testing.T) {
	// All samples non-positive: every quantile must stay within
	// [min, max] — in particular not report 0 when max < 0.
	h := NewHistogram()
	for _, v := range []float64{-5, -3, -1} {
		h.Observe(v)
	}
	for _, p := range []float64{0, 25, 50, 75, 99, 100} {
		q := h.Quantile(p)
		if q < h.Stats().Min || q > h.Stats().Max {
			t.Errorf("all-negative Quantile(%g) = %g outside [%g, %g]",
				p, q, h.Stats().Min, h.Stats().Max)
		}
	}

	// Mixed signs: low quantiles land in the zeros bucket (reported as 0,
	// inside the range), high quantiles in the positive buckets; the
	// estimate must be monotone in p and bounded throughout.
	m := NewHistogram()
	for i := -50; i <= 50; i++ {
		m.Observe(float64(i))
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 0.5 {
		q := m.Quantile(p)
		if q < m.Stats().Min || q > m.Stats().Max {
			t.Fatalf("mixed Quantile(%g) = %g outside [%g, %g]", p, q, m.Stats().Min, m.Stats().Max)
		}
		if q < prev {
			t.Fatalf("Quantile not monotone: Quantile(%g) = %g < %g", p, q, prev)
		}
		prev = q
	}
}

// TestHistogramConcurrentMerge checks Merge against opposite-direction
// merges (a classic lock-ordering deadlock shape) and concurrent observes.
// Each merge can double its target's counts, so the two merge loops are
// kept short enough (2^40 times the samples at most) that no count can
// overflow however the goroutines interleave.
func TestHistogramConcurrentMerge(t *testing.T) {
	const merges = 20
	a, b := NewHistogram(), NewHistogram()
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			a.Observe(float64(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < merges; i++ {
			a.Merge(b)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < merges; i++ {
			b.Observe(1)
			b.Merge(a)
		}
	}()
	wg.Wait()
	if a.N() < 500 {
		t.Errorf("a.N() = %d, want >= 500", a.N())
	}
}
