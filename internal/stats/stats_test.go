package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if !almost(a.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %g", a.Mean())
	}
	// Population variance is 4; sample variance = 32/7.
	if !almost(a.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("variance = %g", a.Variance())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("min/max = %g/%g", a.Min(), a.Max())
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.StdDev() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var a Accumulator
	a.Add(3.5)
	if a.Variance() != 0 {
		t.Fatalf("variance of single sample = %g", a.Variance())
	}
	if a.Min() != 3.5 || a.Max() != 3.5 {
		t.Fatal("min/max of single sample wrong")
	}
}

func TestBatchMeansInterval(t *testing.T) {
	var b BatchMeans
	for i := 0; i < 1000; i++ {
		b.Add(10 + float64(i%7)) // mean 13, deterministic
	}
	mean, hw := b.Interval(10)
	if !almost(mean, 13, 0.05) {
		t.Fatalf("mean = %g", mean)
	}
	if hw < 0 || hw > 1 {
		t.Fatalf("half-width = %g out of plausible range", hw)
	}
}

func TestBatchMeansTooFewSamples(t *testing.T) {
	var b BatchMeans
	b.Add(5)
	mean, hw := b.Interval(10)
	if mean != 5 || hw != 0 {
		t.Fatalf("degenerate interval = (%g, %g)", mean, hw)
	}
	var empty BatchMeans
	if m, h := empty.Interval(10); m != 0 || h != 0 {
		t.Fatal("empty interval should be (0,0)")
	}
}

func TestPercentile(t *testing.T) {
	var b BatchMeans
	for i := 1; i <= 100; i++ {
		b.Add(float64(i))
	}
	if got := b.Percentile(50); !almost(got, 50.5, 1e-9) {
		t.Fatalf("p50 = %g", got)
	}
	if got := b.Percentile(0); got != 1 {
		t.Fatalf("p0 = %g", got)
	}
	if got := b.Percentile(100); got != 100 {
		t.Fatalf("p100 = %g", got)
	}
}

func TestPercentileEmpty(t *testing.T) {
	var b BatchMeans
	if b.Percentile(50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestTQuantileMonotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		q := tQuantile95(df)
		if q > prev {
			t.Fatalf("t quantile not non-increasing at df=%d: %g > %g", df, q, prev)
		}
		prev = q
	}
	if !almost(tQuantile95(1000), 1.96, 1e-9) {
		t.Fatal("large-df quantile should be 1.96")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig 8a", "MPL", "MAGIC", "BERD", "Range")
	tb.AddRow(1, 12.5, 11.0, 9.25)
	tb.AddRow(64, 100.125, 90.0, "n/a")
	s := tb.String()
	if !strings.Contains(s, "Fig 8a") || !strings.Contains(s, "MAGIC") {
		t.Fatalf("missing title/header:\n%s", s)
	}
	if !strings.Contains(s, "12.5") || !strings.Contains(s, "n/a") {
		t.Fatalf("missing cells:\n%s", s)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("x,y", `He said "hi"`)
	csv := tb.CSV()
	want := "a,b\n\"x,y\",\"He said \"\"hi\"\"\"\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestChartRendering(t *testing.T) {
	c := NewChart("Figure 8a", "MPL", "q/s")
	c.AddSeries("magic", []float64{1, 8, 32, 64}, []float64{28, 196, 468, 601})
	c.AddSeries("range", []float64{1, 8, 32, 64}, []float64{22, 152, 342, 418})
	s := c.String()
	for _, want := range []string{"Figure 8a", "MPL", "q/s", "* magic", "o range", "601"} {
		if !strings.Contains(s, want) {
			t.Fatalf("chart missing %q:\n%s", want, s)
		}
	}
	// Top row must contain the highest series' marker somewhere.
	lines := strings.Split(s, "\n")
	if !strings.Contains(lines[1], "*") {
		t.Fatalf("max point not on top row:\n%s", s)
	}
}

func TestChartEmpty(t *testing.T) {
	c := NewChart("empty", "x", "y")
	if !strings.Contains(c.String(), "no data") {
		t.Fatal("empty chart should say so")
	}
	c.AddSeries("zeros", []float64{1, 2}, []float64{0, 0})
	if !strings.Contains(c.String(), "no data") {
		t.Fatal("all-zero chart should say so")
	}
}

func TestChartSinglePoint(t *testing.T) {
	c := NewChart("one", "x", "y")
	c.AddSeries("s", []float64{5}, []float64{10})
	s := c.String()
	if !strings.Contains(s, "*") {
		t.Fatalf("single point not plotted:\n%s", s)
	}
}

func TestChartMismatchedSeriesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched series did not panic")
		}
	}()
	NewChart("t", "x", "y").AddSeries("bad", []float64{1}, []float64{1, 2})
}

func TestPercentileExactRanks(t *testing.T) {
	// n=11 samples 0..100 by 10: rank = p/100*10 is an exact integer at
	// every multiple of 10, but e.g. 0.3*10 = 2.9999999999999996 in
	// floating point. Exact-rank percentiles must return the sample itself.
	var b BatchMeans
	for i := 0; i <= 100; i += 10 {
		b.Add(float64(i))
	}
	cases := []struct {
		p, want float64
	}{
		{0, 0}, {10, 10}, {20, 20}, {30, 30}, {40, 40}, {50, 50},
		{60, 60}, {70, 70}, {80, 80}, {90, 90}, {100, 100},
		{25, 25}, {95, 95}, // interpolated midpoints still work
	}
	for _, c := range cases {
		if got := b.Percentile(c.p); got != c.want {
			t.Errorf("Percentile(%g) = %g, want exactly %g", c.p, got, c.want)
		}
	}
}

func TestPercentileSingleSample(t *testing.T) {
	var b BatchMeans
	b.Add(42)
	for _, p := range []float64{0, 30, 50, 99, 100} {
		if got := b.Percentile(p); got != 42 {
			t.Errorf("Percentile(%g) = %g, want 42", p, got)
		}
	}
}

func TestPercentileTwoSamples(t *testing.T) {
	var b BatchMeans
	b.Add(10)
	b.Add(20)
	cases := []struct {
		p, want float64
	}{{0, 10}, {25, 12.5}, {50, 15}, {75, 17.5}, {100, 20}}
	for _, c := range cases {
		if got := b.Percentile(c.p); !almost(got, c.want, 1e-12) {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

// TestPercentileProperties checks, over arbitrary sample sets, the order
// statistics invariants a percentile estimator must satisfy: bounded by
// the sample min and max, and monotone non-decreasing in the quantile.
func TestPercentileProperties(t *testing.T) {
	prop := func(samples []float64, qs []float64) bool {
		if len(samples) == 0 {
			return true
		}
		var b BatchMeans
		lo, hi := samples[0], samples[0]
		for _, x := range samples {
			// quick generates NaN-free float64s but keep the property
			// meaningful on huge magnitudes by skipping infinities.
			if math.IsInf(x, 0) || math.IsNaN(x) {
				return true
			}
			b.Add(x)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		// Bounded by min/max at arbitrary (even out-of-range) quantiles.
		for _, q := range qs {
			v := b.Percentile(q)
			if v < lo || v > hi {
				return false
			}
		}
		// Monotone in q over a fixed grid.
		prev := math.Inf(-1)
		for q := -10.0; q <= 110; q += 2.5 {
			v := b.Percentile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// The invariants must also hold at the degenerate sizes the generator
	// rarely produces: one and two samples.
	for _, set := range [][]float64{{-3.5}, {7, -7}} {
		if !prop(set, []float64{-1, 0, 13, 50, 99.999, 100, 200}) {
			t.Errorf("percentile invariants violated for %v", set)
		}
	}
}
