package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gamma"
)

func sampleArchive(qps float64) Archive {
	return Archive{
		Label:   "test",
		Options: QuickScale(),
		Figures: []FigureArchive{{
			ID: "8a", Title: "Low-Low", Correlation: "low",
			Points: []Point{
				{Strategy: "magic", MPL: 64, Result: gamma.RunResult{ThroughputQPS: qps}},
				{Strategy: "range", MPL: 64, Result: gamma.RunResult{ThroughputQPS: 400}},
			},
		}},
	}
}

func TestArchiveRoundTrip(t *testing.T) {
	a := sampleArchive(600)
	var buf bytes.Buffer
	if err := WriteArchive(&buf, a); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArchive(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "test" || len(got.Figures) != 1 || len(got.Figures[0].Points) != 2 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Figures[0].Points[0].Result.ThroughputQPS != 600 {
		t.Fatal("throughput lost")
	}
}

// FuzzReadArchive feeds arbitrary bytes to ReadArchive, seeded with the
// round-trip test's archive. It must never panic, and any archive it
// accepts must come back unchanged through WriteArchive and ReadArchive
// and compare to itself with no differences.
func FuzzReadArchive(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteArchive(&seed, sampleArchive(600)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"figures":[{"id":"8a","points":[{"Strategy":"magic","MPL":1}]}]}`))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ReadArchive(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteArchive(&buf, a); err != nil {
			t.Fatalf("accepted archive does not write: %v", err)
		}
		back, err := ReadArchive(&buf)
		if err != nil {
			t.Fatalf("written archive does not read back: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(a, back) {
			t.Fatalf("archive changed in a round trip:\n%+v\n%+v", a, back)
		}
		if diffs := CompareArchives(a, a, 0); len(diffs) != 0 {
			t.Fatalf("archive differs from itself: %v", diffs)
		}
	})
}

func TestReadArchiveRejectsGarbage(t *testing.T) {
	if _, err := ReadArchive(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCompareArchivesNoDiff(t *testing.T) {
	if diffs := CompareArchives(sampleArchive(600), sampleArchive(612), 0.05); len(diffs) != 0 {
		t.Fatalf("2%% drift flagged: %v", diffs)
	}
}

func TestCompareArchivesFlagsRegression(t *testing.T) {
	diffs := CompareArchives(sampleArchive(600), sampleArchive(480), 0.05)
	if len(diffs) != 1 {
		t.Fatalf("diffs = %v", diffs)
	}
	if !strings.Contains(diffs[0], "magic") || !strings.Contains(diffs[0], "-20.0%") {
		t.Fatalf("diff = %q", diffs[0])
	}
}

// TestCompareArchivesZeroToleranceIsExact: tolerance 0 is an exact gate —
// a 1% throughput drift is reported, and an archive matches itself after a
// JSON round trip.
func TestCompareArchivesZeroToleranceIsExact(t *testing.T) {
	if diffs := CompareArchives(sampleArchive(600), sampleArchive(606), 0); len(diffs) != 1 ||
		!strings.Contains(diffs[0], "+1.0%") {
		t.Fatalf("1%% drift at tolerance 0: diffs = %v", diffs)
	}
	a := sampleArchive(600.123456789)
	var buf bytes.Buffer
	if err := WriteArchive(&buf, a); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArchive(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := CompareArchives(a, got, 0); len(diffs) != 0 {
		t.Fatalf("round-tripped archive drifted at tolerance 0: %v", diffs)
	}
}

func TestCompareArchivesStructuralChanges(t *testing.T) {
	baseline := sampleArchive(600)
	current := sampleArchive(600)
	current.Figures[0].Points = append(current.Figures[0].Points,
		Point{Strategy: "berd", MPL: 64, Result: gamma.RunResult{ThroughputQPS: 300}})
	baseline.Figures[0].Points = append(baseline.Figures[0].Points,
		Point{Strategy: "hash", MPL: 64, Result: gamma.RunResult{ThroughputQPS: 100}})
	diffs := CompareArchives(baseline, current, 0.05)
	joined := strings.Join(diffs, "\n")
	if !strings.Contains(joined, "berd") || !strings.Contains(joined, "new point") {
		t.Fatalf("new point not reported: %v", diffs)
	}
	if !strings.Contains(joined, "hash") || !strings.Contains(joined, "missing") {
		t.Fatalf("missing point not reported: %v", diffs)
	}
}

// An archive written from a real quick run must survive the round trip with
// per-class stats intact.
func TestArchiveFromRealRun(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	fig, _ := FigureByID("8a")
	opts := QuickScale()
	opts.MPLs = []int{8}
	opts.MeasureQueries = 120
	opts.WarmupQueries = 30
	fr := runFigure(t, fig, opts)
	a := Archive{Options: opts, Figures: []FigureArchive{fr.Archive()}}
	var buf bytes.Buffer
	if err := WriteArchive(&buf, a); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArchive(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p := got.Figures[0].Points[0]
	if len(p.Result.PerClass) != 2 {
		t.Fatalf("per-class stats lost: %+v", p.Result)
	}
	if diffs := CompareArchives(a, got, 0.01); len(diffs) != 0 {
		t.Fatalf("self-comparison reported diffs: %v", diffs)
	}
}
