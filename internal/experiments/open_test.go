package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/serve"
)

func openTestOptions() (Options, OpenOptions) {
	opts := Options{
		Cardinality:    5000,
		Processors:     32,
		WarmupQueries:  10,
		MeasureQueries: 60,
		Seed:           1,
	}
	oopts := OpenOptions{
		Arrival: serve.Poisson,
		Lambdas: []float64{50, 200},
		Tenants: 2,
	}
	return opts, oopts
}

// The open-system campaign must reassemble identically at any worker
// count — same points in canonical order with the same measurements —
// and stamp every manifest job with its arrival kind and offered load.
func TestOpenSystemDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs are slow")
	}
	fig, err := FigureByID("8a")
	if err != nil {
		t.Fatal(err)
	}
	figs := []Figure{fig}
	opts, oopts := openTestOptions()

	serial, err := RunOpenSystem(figs, opts, oopts, CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunOpenSystem(figs, opts, oopts, CampaignOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Compare the measured points, not the whole figure: Figure.Mix is a
	// func value, which DeepEqual rejects even when identical.
	if !reflect.DeepEqual(serial.Figures[0].Points, parallel.Figures[0].Points) {
		t.Fatalf("workers=1 and workers=4 disagree:\n%+v\nvs\n%+v",
			serial.Figures[0].Points, parallel.Figures[0].Points)
	}
	if !reflect.DeepEqual(serial.Figures[0].Notes, parallel.Figures[0].Notes) {
		t.Fatalf("notes disagree across worker counts")
	}

	fr := serial.Figures[0]
	wantPoints := len(fig.Strategies) * len(oopts.Lambdas)
	if len(fr.Points) != wantPoints {
		t.Fatalf("got %d points, want %d", len(fr.Points), wantPoints)
	}
	for _, p := range fr.Points {
		if p.Result.Serve.SLO.Completed == 0 {
			t.Fatalf("point %s/λ=%g completed nothing", p.Strategy, p.Lambda)
		}
	}

	// Manifest jobs carry the open-system workload fields.
	if serial.Manifest.Jobs != wantPoints {
		t.Fatalf("manifest jobs = %d, want %d", serial.Manifest.Jobs, wantPoints)
	}
	for _, r := range serial.Manifest.Reports {
		d, _ := r.Detail.(JobDetail)
		if d.Arrival != "poisson" {
			t.Fatalf("job %s arrival = %q", r.ID, d.Arrival)
		}
		if d.OfferedQPS != 50 && d.OfferedQPS != 200 {
			t.Fatalf("job %s offered_qps = %g", r.ID, d.OfferedQPS)
		}
	}

	// The rendered tables must include every strategy and a summary row
	// per strategy with a knee.
	table := fr.Table().String()
	summary := fr.SummaryTable().String()
	for _, s := range fig.Strategies {
		if !strings.Contains(table, s) && !strings.Contains(summary, s) {
			t.Fatalf("strategy %s missing from output:\n%s\n%s", s, table, summary)
		}
	}
	for _, sum := range fr.Summaries() {
		if sum.KneeLambda == 0 || sum.Sustainable <= 0 {
			t.Fatalf("summary without a knee: %+v", sum)
		}
	}
}
