package obs

import (
	"slices"
	"strings"
	"testing"
)

const winNS = int64(1e9) // 1s windows keep the rate arithmetic readable

// Len reports the number of live windows (0 on nil).
func (s *Sampler) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

func TestSamplerKinds(t *testing.T) {
	s := NewSampler(winNS, 8)
	gauge, counter := 0.0, 0.0
	s.Register("g", SeriesGauge, func() float64 { return gauge })
	s.Register("c", SeriesCounter, func() float64 { return counter })
	s.Register("r", SeriesRate, func() float64 { return counter })

	gauge, counter = 3, 10
	s.Sample(1 * winNS)
	gauge, counter = 5, 40
	s.Sample(2 * winNS)

	snap := s.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("got %d series, want 3", len(snap))
	}
	// Snapshot sorts by name: c, g, r.
	if snap[0].Name != "c" || snap[1].Name != "g" || snap[2].Name != "r" {
		t.Fatalf("bad sort order: %s %s %s", snap[0].Name, snap[1].Name, snap[2].Name)
	}
	if got := snap[1].Points; got[0].V != 3 || got[1].V != 5 {
		t.Errorf("gauge points = %v, want 3 then 5", got)
	}
	if got := snap[0].Points; got[0].V != 10 || got[1].V != 40 {
		t.Errorf("counter points = %v, want 10 then 40", got)
	}
	// Rate: primed at 0 on Register, so window 1 sees (10-0)/1s, window 2
	// (40-10)/1s.
	if got := snap[2].Points; got[0].V != 10 || got[1].V != 30 {
		t.Errorf("rate points = %v, want 10 then 30", got)
	}
	if snap[2].Kind != "rate" || snap[0].Kind != "counter" || snap[1].Kind != "gauge" {
		t.Errorf("bad kinds: %s %s %s", snap[0].Kind, snap[1].Kind, snap[2].Kind)
	}
	if snap[0].WindowNS != winNS {
		t.Errorf("WindowNS = %d, want %d", snap[0].WindowNS, winNS)
	}
}

func TestSamplerRateClampsNegativeDelta(t *testing.T) {
	s := NewSampler(winNS, 8)
	v := 100.0
	s.Register("r", SeriesRate, func() float64 { return v })
	v = 150
	s.Sample(1 * winNS)
	v = 20 // source reset underneath, no rebase
	s.Sample(2 * winNS)
	v = 30
	s.Sample(3 * winNS)

	pts := s.Snapshot()[0].Points
	if pts[0].V != 50 {
		t.Errorf("window 1 rate = %g, want 50", pts[0].V)
	}
	if pts[1].V != 0 {
		t.Errorf("reset window rate = %g, want clamped 0", pts[1].V)
	}
	if pts[2].V != 10 {
		t.Errorf("window 3 rate = %g, want 10 (re-primed)", pts[2].V)
	}
}

func TestSamplerRebase(t *testing.T) {
	s := NewSampler(winNS, 8)
	v := 0.0
	s.Register("r", SeriesRate, func() float64 { return v })
	v = 100
	s.Sample(1 * winNS)
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}

	// Warm boundary: the source resets and the sampler rebases in step.
	v = 7
	s.Rebase(1 * winNS)
	if s.Len() != 0 {
		t.Fatalf("Len after Rebase = %d, want 0", s.Len())
	}
	v = 27
	s.Sample(2 * winNS)
	pts := s.Snapshot()[0].Points
	if len(pts) != 1 || pts[0].V != 20 {
		t.Errorf("post-rebase rate = %v, want one point of 20", pts)
	}
}

func TestSamplerOverwritesOldest(t *testing.T) {
	s := NewSampler(winNS, 3)
	n := 0.0
	s.Register("g", SeriesGauge, func() float64 { n++; return n })
	for i := 1; i <= 5; i++ {
		s.Sample(int64(i) * winNS)
	}
	sd := s.Snapshot()[0]
	if s.Len() != 3 || sd.Dropped != 2 {
		t.Fatalf("Len=%d Dropped=%d, want 3 and 2", s.Len(), sd.Dropped)
	}
	if sd.Points[0].TNS != 3*winNS || sd.Points[2].TNS != 5*winNS {
		t.Errorf("kept windows %d..%d, want 3s..5s",
			sd.Points[0].TNS, sd.Points[2].TNS)
	}
	if sd.Points[0].V != 3 || sd.Points[1].V != 4 || sd.Points[2].V != 5 {
		t.Errorf("values %v, want 3 4 5", sd.Points)
	}
}

func TestSamplerIgnoresNonAdvancingTime(t *testing.T) {
	s := NewSampler(winNS, 8)
	s.Register("g", SeriesGauge, func() float64 { return 1 })
	s.Sample(winNS)
	s.Sample(winNS)     // same instant
	s.Sample(winNS / 2) // going backwards
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1 (non-advancing samples ignored)", s.Len())
	}
}

func TestSamplerDuplicateNamePanics(t *testing.T) {
	s := NewSampler(winNS, 8)
	s.Register("x", SeriesGauge, func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	s.Register("x", SeriesGauge, func() float64 { return 0 })
}

func TestSamplerNilIsNoOp(t *testing.T) {
	var s *Sampler
	s.Register("x", SeriesGauge, func() float64 { return 0 })
	s.Sample(1)
	s.Rebase(2)
	if s.Len() != 0 || s.WindowNS() != 0 || s.Snapshot() != nil {
		t.Error("nil sampler leaked state")
	}
	if err := s.WriteOpenMetrics(nil, ""); err != nil {
		t.Errorf("nil WriteOpenMetrics: %v", err)
	}
}

func TestSamplerSampleAllocs(t *testing.T) {
	s := NewSampler(winNS, 4)
	c := 0.0
	for _, name := range []string{"a", "b", "c", "d"} {
		s.Register(name+".rate", SeriesRate, func() float64 { c++; return c })
		s.Register(name+".gauge", SeriesGauge, func() float64 { return c })
	}
	now := int64(0)
	// Includes ring-overwrite steady state: capacity 4, 100 samples.
	avg := testing.AllocsPerRun(100, func() {
		now += winNS
		s.Sample(now)
	})
	if avg != 0 {
		t.Errorf("Sample allocates %.1f/op, want 0", avg)
	}
}

// The rings start at 64 windows and double up to the capacity as windows
// arrive, every sample keeping its place: a sampler of capacity 200 holds
// the same points as one written straight into the capacity would — 250
// windows keep the last 200, oldest first, with 50 dropped — including a
// series registered after the rings first grew, which reads 0 in the
// windows before it, and a Rebase keeps the grown rings.
func TestSamplerRingsGrow(t *testing.T) {
	s := NewSampler(winNS, 200)
	v := 0.0
	s.Register("early", SeriesGauge, func() float64 { return v })
	var lens []int
	for i := 1; i <= 250; i++ {
		if i == 70 {
			s.Register("late", SeriesGauge, func() float64 { return -v })
		}
		v = float64(i)
		s.Sample(int64(i) * winNS)
		if n := len(s.times); len(lens) == 0 || lens[len(lens)-1] != n {
			lens = append(lens, n)
		}
	}
	if want := []int{64, 128, 200}; !slices.Equal(lens, want) {
		t.Fatalf("ring lengths %v, want %v", lens, want)
	}
	snap := s.Snapshot()
	for _, d := range snap {
		if len(d.Points) != 200 || d.Dropped != 50 {
			t.Fatalf("%s: %d points, %d dropped; want 200, 50", d.Name, len(d.Points), d.Dropped)
		}
		for j, p := range d.Points {
			want := float64(51 + j)
			if d.Name == "late" {
				want = -want
				if 51+j < 70 {
					want = 0 // windows sampled before it was registered
				}
			}
			if p.TNS != int64(51+j)*winNS || p.V != want {
				t.Fatalf("%s point %d = %+v, want t=%d v=%v", d.Name, j, p, int64(51+j)*winNS, want)
			}
		}
	}
	s.Rebase(300 * winNS)
	s.Sample(301 * winNS)
	if len(s.times) != 200 || s.Len() != 1 {
		t.Fatalf("after a rebase: ring length %d, %d windows; want 200, 1", len(s.times), s.Len())
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	s := NewSampler(winNS, 8)
	v := 0.0
	s.Register("beta", SeriesGauge, func() float64 { return v + 0.5 })
	s.Register("alpha", SeriesGauge, func() float64 { return v })
	v = 1
	s.Sample(1 * winNS)
	v = 2
	s.Sample(2 * winNS)

	var b strings.Builder
	if err := WriteSeriesCSV(&b, s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := "t_ms,alpha,beta\n1000,1,1.5\n2000,2,2.5\n"
	if b.String() != want {
		t.Errorf("CSV:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestWriteSeriesCSVMisaligned(t *testing.T) {
	series := []SeriesData{
		{Name: "a", Points: []SeriesPoint{{TNS: 1, V: 1}}},
		{Name: "b", Points: []SeriesPoint{{TNS: 1, V: 1}, {TNS: 2, V: 2}}},
	}
	if err := WriteSeriesCSV(&strings.Builder{}, series); err == nil {
		t.Error("misaligned series did not error")
	}
}

func TestWriteOpenMetrics(t *testing.T) {
	s := NewSampler(winNS, 8)
	v := 1.0
	s.Register("serve.goodput_qps", SeriesRate, func() float64 { return v })
	v = 11
	s.Sample(1 * winNS)

	var b strings.Builder
	if err := s.WriteOpenMetrics(&b, `run="r1"`); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE serve_goodput_qps gauge\nserve_goodput_qps{run=\"r1\"} 10\n"
	if b.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}

	// Empty sampler exposes nothing (no samples yet).
	var empty strings.Builder
	if err := NewSampler(winNS, 8).WriteOpenMetrics(&empty, ""); err != nil || empty.Len() != 0 {
		t.Errorf("empty sampler wrote %q", empty.String())
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"serve.goodput_qps": "serve_goodput_qps",
		"node0.disk.util":   "node0_disk_util",
		"a..b--c":           "a_b_c",
		"9lives":            "_9lives",
		"ok:name_1":         "ok:name_1",
		"":                  "_",
		"...":               "_",
	}
	for in, want := range cases {
		if got := SanitizeMetricName(in); got != want {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}
