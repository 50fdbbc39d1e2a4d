package experiments

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// runHeatCampaign runs figure 8a with heat armed on the given worker count
// and returns the campaign.
func runHeatCampaign(t *testing.T, workers int) Campaign {
	t.Helper()
	fig, err := FigureByID("8a")
	if err != nil {
		t.Fatal(err)
	}
	opts := campaignTestOptions()
	opts.Heat = true
	opts.HeatTopK = 3
	c, err := RunCampaign([]Figure{fig}, opts, CampaignOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func heatCSVBytes(t *testing.T, s *obs.HeatSnapshot) string {
	t.Helper()
	var b strings.Builder
	if err := obs.WriteHeatCSV(&b, s); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// The heatmap acceptance bar: merged per-strategy heat CSVs must come out
// byte-identical whatever the worker count — the merge walks points in
// canonical figure order, and the cross-job histogram reduction
// (obs.Histogram.Merge) is order-independent on all reported statistics.
func TestStrategyHeatByteIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs are slow")
	}
	serial := runHeatCampaign(t, 1)
	parallel := runHeatCampaign(t, 4)

	fr1, fr4 := serial.Figures[0], parallel.Figures[0]
	for _, s := range fr1.Figure.Strategies {
		a, b := fr1.StrategyHeat(s), fr4.StrategyHeat(s)
		if a == nil || b == nil {
			t.Fatalf("%s: heat missing (workers 1: %v, workers 4: %v)", s, a != nil, b != nil)
		}
		ca, cb := heatCSVBytes(t, a), heatCSVBytes(t, b)
		if ca != cb {
			t.Errorf("%s: heat CSVs differ across worker counts:\n%s\nvs:\n%s", s, ca, cb)
		}
		if a.TopKShare != b.TopKShare || a.HHI != b.HHI || a.Gini != b.Gini {
			t.Errorf("%s: concentration indices differ: %+v vs %+v", s, a, b)
		}
		// The merged view sums the sweep: each MPL point contributes.
		var pointPages int64
		for _, p := range fr1.Points {
			if p.Strategy == s && p.Result.Heat != nil {
				pointPages += p.Result.Heat.TotalPages
			}
		}
		if a.TotalPages != pointPages {
			t.Errorf("%s: merged pages %d != sum of points %d", s, a.TotalPages, pointPages)
		}
		if tb := fr1.HeatTable(s); tb == nil {
			t.Errorf("%s: HeatTable nil with heat armed", s)
		}
		if line := HotLine(fr1.Figure.ID, s, a); !strings.HasPrefix(line, "hot fragments 8a/"+s+":") {
			t.Errorf("%s: HotLine = %q", s, line)
		}
	}

	// Hot-fragment reports landed in the manifest (reassembled in job
	// order, like fault counts).
	for _, rep := range serial.Manifest.Reports {
		if d, _ := rep.Detail.(JobDetail); len(d.HotFragments) == 0 {
			t.Errorf("job %s: no hot fragments in manifest", rep.ID)
		}
	}
}

func TestStrategyHeatNilWhenDisabled(t *testing.T) {
	var fr FigureResult
	if fr.StrategyHeat("range") != nil || fr.HeatTable("range") != nil {
		t.Error("heat reported without armed runs")
	}
	if HotLine("8a", "range", nil) != "" {
		t.Error("HotLine on nil snapshot should be empty")
	}
	var or OpenFigureResult
	if or.StrategyHeat("range") != nil || or.HeatTable("range") != nil {
		t.Error("open heat reported without armed runs")
	}
}
