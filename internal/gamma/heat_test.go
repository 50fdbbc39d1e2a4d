package gamma

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestHeatNilWhenDisabled(t *testing.T) {
	rel := smallRelation(t, 0)
	m := buildRange(t, rel, DefaultConfig())
	if m.Heat != nil {
		t.Fatal("Heat armed without Config.Heat")
	}
	mix := workload.LowLow(rel.Cardinality())
	res, err := m.Run(mix, RunSpec{MPL: 2, WarmupQueries: 5, MeasureQueries: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Heat != nil || res.HotFragments != nil {
		t.Error("disabled run carried a heat snapshot")
	}
}

// The accounting invariant: with MPL 1 (no request in flight at the
// warm-up boundary or at stop) every page request is either a buffer hit
// or exactly one physical disk read, so per-node fragment miss sums equal
// the node's disk read counter, and per-fragment pages equal hits+misses.
func TestRunHeatInvariant(t *testing.T) {
	rel := smallRelation(t, 0)
	cfg := DefaultConfig()
	cfg.Heat = &HeatSpec{}
	m := buildBERD(t, rel, cfg) // BERD: primary and aux fragments
	mix := workload.LowLow(rel.Cardinality())
	res, err := m.Run(mix, RunSpec{MPL: 1, WarmupQueries: 10, MeasureQueries: 60})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Heat
	if s == nil || len(s.Rows) == 0 {
		t.Fatal("heat armed but snapshot empty")
	}
	if s.TotalPages == 0 {
		t.Fatal("no pages accounted")
	}
	kinds := map[string]bool{}
	missByNode := map[int]int64{}
	for _, r := range s.Rows {
		kinds[r.Kind] = true
		missByNode[r.Node] += r.BufMisses
		if got, want := r.BufHits+r.BufMisses, r.Pages(); got != want {
			t.Errorf("%s@n%d: hits+misses = %d, pages = %d", r.Label(), r.Node, got, want)
		}
		if r.SizePages <= 0 {
			t.Errorf("%s@n%d: footprint %d, want > 0", r.Label(), r.Node, r.SizePages)
		}
		if r.Remote != 0 {
			t.Errorf("%s@n%d: %d remote reads on a fault-free run", r.Label(), r.Node, r.Remote)
		}
	}
	if !kinds["aux"] {
		t.Error("BERD run accounted no aux fragment traffic")
	}
	for _, nu := range res.NodeStats {
		if missByNode[nu.Node] != nu.DiskReads {
			t.Errorf("node %d: fragment misses %d != disk reads %d",
				nu.Node, missByNode[nu.Node], nu.DiskReads)
		}
	}
	if len(res.HotFragments) == 0 {
		t.Error("no hot fragments reported")
	}
	for i := 1; i < len(res.HotFragments); i++ {
		if res.HotFragments[i].Pages > res.HotFragments[i-1].Pages {
			t.Fatalf("hot fragments not ranked: %+v", res.HotFragments)
		}
	}
}

func TestRunHeatDeterministic(t *testing.T) {
	rel := smallRelation(t, 0)
	cfg := DefaultConfig()
	cfg.Heat = &HeatSpec{TopK: 3}
	m := buildRange(t, rel, cfg)
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
	var ca, cb strings.Builder
	if err := obs.WriteHeatCSV(&ca, a.Heat); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteHeatCSV(&cb, b.Heat); err != nil {
		t.Fatal(err)
	}
	if ca.String() != cb.String() {
		t.Errorf("replays produced different heat CSVs:\n%s\nvs:\n%s", ca.String(), cb.String())
	}
	if len(a.HotFragments) == 0 || !reflect.DeepEqual(a.HotFragments, b.HotFragments) {
		t.Errorf("hot fragments differ: %+v vs %+v", a.HotFragments, b.HotFragments)
	}
}

// Arming heat must not perturb the simulation: the measured result minus
// the heat blocks is identical to a heat-free run's.
func TestRunHeatDoesNotPerturbSchedule(t *testing.T) {
	rel := smallRelation(t, 0)
	mix := workload.LowLow(rel.Cardinality())
	spec := RunSpec{MPL: 4, WarmupQueries: 10, MeasureQueries: 100}

	plain, err := buildRange(t, rel, DefaultConfig()).Run(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Heat = &HeatSpec{}
	heated, err := buildRange(t, rel, cfg).Run(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	if heated.Heat == nil {
		t.Fatal("heat armed but snapshot missing")
	}
	heated.Heat = nil
	heated.HotFragments = nil
	if !reflect.DeepEqual(plain, heated) {
		t.Fatalf("heat accounting perturbed the run:\nplain  %+v\nheated %+v", plain, heated)
	}
}

// With telemetry and heat both armed, per-fragment EWMA heat series show
// up in the run's time series with fragment/node/strategy labels, plus the
// concentration gauges.
func TestRunHeatTelemetrySeries(t *testing.T) {
	rel := smallRelation(t, 0)
	cfg := DefaultConfig()
	cfg.Telemetry = &TelemetrySpec{Window: 50 * sim.Millisecond}
	cfg.Heat = &HeatSpec{}
	m := buildRange(t, rel, cfg)
	mix := workload.LowLow(rel.Cardinality())
	res, err := m.Run(mix, RunSpec{MPL: 4, WarmupQueries: 20, MeasureQueries: 200})
	if err != nil {
		t.Fatal(err)
	}
	var fragSeries *obs.SeriesData
	for i := range res.Series {
		if strings.HasPrefix(res.Series[i].Name, "frag.") && strings.HasSuffix(res.Series[i].Name, ".heat") {
			fragSeries = &res.Series[i]
			break
		}
	}
	if fragSeries == nil {
		t.Fatalf("no frag.*.heat series among %d series", len(res.Series))
	}
	for _, want := range []string{`fragment="`, `node="`, `strategy="`} {
		if !strings.Contains(fragSeries.Labels, want) {
			t.Errorf("labels %q missing %s", fragSeries.Labels, want)
		}
	}
	var sawHot bool
	for _, pt := range fragSeries.Points {
		if pt.V < 0 {
			t.Fatalf("negative heat %g at %dns", pt.V, pt.TNS)
		}
		if pt.V > 0 {
			sawHot = true
		}
	}
	if !sawHot {
		t.Error("fragment heat never rose above zero")
	}
	for _, name := range []string{"frag.heat.topk_share", "frag.heat.hhi"} {
		sd := seriesByName(res.Series, name)
		if sd == nil {
			t.Errorf("series %s missing", name)
			continue
		}
		for _, pt := range sd.Points {
			if pt.V < 0 || pt.V > 1.000001 {
				t.Errorf("%s = %g out of [0,1]", name, pt.V)
			}
		}
	}
}

func TestHeatSpecDefaults(t *testing.T) {
	var s *HeatSpec
	if got := s.topK(); got != obs.DefaultHeatTopK {
		t.Errorf("nil spec topK = %d", got)
	}
	if got := (&HeatSpec{TopK: 7}).topK(); got != 7 {
		t.Errorf("topK = %d, want 7", got)
	}
}
