package gamma

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

func seriesByName(series []obs.SeriesData, name string) *obs.SeriesData {
	for i := range series {
		if series[i].Name == name {
			return &series[i]
		}
	}
	return nil
}

// A closed run with telemetry armed must stamp the machine probe series —
// and produce the same series on replay, because sampling rides sim time.
func TestRunTelemetrySeries(t *testing.T) {
	rel := smallRelation(t, 0)
	cfg := DefaultConfig()
	cfg.Telemetry = &TelemetrySpec{Window: 50 * sim.Millisecond}
	m := buildRange(t, rel, cfg)
	mix := workload.LowLow(rel.Cardinality())
	spec := RunSpec{MPL: 4, WarmupQueries: 20, MeasureQueries: 200}

	res, err := m.Run(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) == 0 {
		t.Fatal("telemetry armed but Series is empty")
	}
	util := seriesByName(res.Series, "node0.disk.util")
	if util == nil {
		t.Fatalf("node0.disk.util missing from %d series", len(res.Series))
	}
	if util.Kind != "rate" || len(util.Points) == 0 {
		t.Fatalf("node0.disk.util = %+v", util)
	}
	// Windowed utilization is busy-seconds per second: within [0, 1].
	var busy bool
	for _, pt := range util.Points {
		if pt.V < 0 || pt.V > 1.000001 {
			t.Fatalf("windowed utilization %g out of range at %dns", pt.V, pt.TNS)
		}
		if pt.V > 0 {
			busy = true
		}
	}
	if !busy {
		t.Error("disk never busy across the measured windows")
	}
	skew := seriesByName(res.Series, "disk.skew")
	if skew == nil || len(skew.Points) != len(util.Points) {
		t.Fatalf("disk.skew missing or misaligned: %+v", skew)
	}
	for _, pt := range skew.Points {
		// Skew is max/mean over nodes: 0 (idle window) or >= 1.
		if pt.V != 0 && pt.V < 1 {
			t.Fatalf("skew %g at %dns, want 0 or >= 1", pt.V, pt.TNS)
		}
	}
	// The sampler rebases at the warm-up boundary: every stamped window ends
	// strictly after the measurement started.
	if util.Points[0].TNS == 0 {
		t.Error("series includes the pre-warm-up origin window")
	}

	rep, err := m.Run(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Series, rep.Series) {
		t.Fatal("same seed+spec produced different time series")
	}
}

// Arming telemetry must not perturb the simulation: the measured result
// minus the Series block is identical to a telemetry-free run's.
func TestRunTelemetryDoesNotPerturbSchedule(t *testing.T) {
	rel := smallRelation(t, 0)
	mix := workload.LowLow(rel.Cardinality())
	spec := RunSpec{MPL: 4, WarmupQueries: 10, MeasureQueries: 100}

	plain, err := buildRange(t, rel, DefaultConfig()).Run(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Telemetry = &TelemetrySpec{Window: 50 * sim.Millisecond}
	sampled, err := buildRange(t, rel, cfg).Run(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(sampled.Series) == 0 {
		t.Fatal("telemetry armed but Series is empty")
	}
	sampled.Series = nil
	if !reflect.DeepEqual(plain, sampled) {
		t.Fatalf("telemetry perturbed the run:\nplain   %+v\nsampled %+v", plain, sampled)
	}
}

// A serving run with telemetry armed carries both the machine probes and
// the serving-layer series, plus the SLO burn verdict.
func TestRunServeTelemetry(t *testing.T) {
	rel := smallRelation(t, 0)
	cfg := DefaultConfig()
	cfg.Telemetry = &TelemetrySpec{Window: 50 * sim.Millisecond, BurnBudget: 0.2}
	m := buildRange(t, rel, cfg)
	mix := workload.LowLow(rel.Cardinality())
	spec := ServeSpec{
		Arrival:        serve.ArrivalSpec{Kind: serve.Poisson, RateQPS: 300},
		MaxInService:   8,
		WarmupQueries:  20,
		MeasureQueries: 150,
		MaxSimTime:     20 * sim.Second,
	}

	res, err := m.RunServe(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"serve.goodput_qps", "serve.queue_depth", "node0.disk.util"} {
		if seriesByName(res.Series, name) == nil {
			t.Errorf("series %s missing", name)
		}
	}
	burn := res.Serve.Burn
	if burn == nil || burn.Windows == 0 {
		t.Fatalf("burn verdict missing: %+v", burn)
	}
	if burn.Budget != 0.2 {
		t.Errorf("burn budget = %g, want the spec's 0.2", burn.Budget)
	}
	if burn.WindowNS != int64(50*sim.Millisecond) {
		t.Errorf("burn window = %dns, want 50ms", burn.WindowNS)
	}

	rep, err := m.RunServe(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, rep) {
		t.Fatal("same seed+spec produced different serving telemetry")
	}
}

// Arming telemetry must not perturb an open run either: the result minus
// the Series block and the burn verdict is identical to a telemetry-free
// run's, although the sampler's events interleave with the arrivals'.
func TestRunServeTelemetryDoesNotPerturbSchedule(t *testing.T) {
	rel := smallRelation(t, 0)
	mix := workload.LowLow(rel.Cardinality())
	spec := ServeSpec{
		Arrival:        serve.ArrivalSpec{Kind: serve.Poisson, RateQPS: 300},
		MaxInService:   8,
		WarmupQueries:  20,
		MeasureQueries: 150,
		MaxSimTime:     20 * sim.Second,
	}

	plain, err := buildRange(t, rel, DefaultConfig()).RunServe(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Telemetry = &TelemetrySpec{Window: 50 * sim.Millisecond}
	sampled, err := buildRange(t, rel, cfg).RunServe(mix, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(sampled.Series) == 0 || sampled.Serve.Burn == nil {
		t.Fatal("telemetry armed but Series or the burn verdict is empty")
	}
	sampled.Series, sampled.Serve.Burn = nil, nil
	if !reflect.DeepEqual(plain, sampled) {
		t.Fatalf("telemetry perturbed the run:\nplain   %+v\nsampled %+v", plain, sampled)
	}
}

const closedSeriesGolden = "testdata/closed_series.golden"

// TestClosedSeriesGolden pins the time series of a small closed run with
// telemetry and heat armed: the sampler's window instants, its rebase at
// the warm-up boundary and every probe's value. Regenerate with
// -update-traces only for a change that means to alter the series.
func TestClosedSeriesGolden(t *testing.T) {
	rel := smallRelation(t, 0)
	cfg := DefaultConfig()
	cfg.Telemetry = &TelemetrySpec{Window: 50 * sim.Millisecond}
	cfg.Heat = &HeatSpec{}
	m := buildRange(t, rel, cfg)
	defer m.Close()
	res, err := m.Run(workload.LowLow(rel.Cardinality()),
		RunSpec{MPL: 4, WarmupQueries: 10, MeasureQueries: 120})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(res.Series, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	checkTraceGolden(t, closedSeriesGolden, append(got, '\n'))
}

const closedUtilGolden = "testdata/closed_util.golden"

// TestClosedUtilizationGolden pins a small closed run's utilization at full
// precision: every node's CPU and disk utilization and busy seconds, and the
// machine means. The closed stdout goldens print these to two decimals, so
// this is the bit-for-bit check of the busy-time accounting on the closed
// path (elastic_result.golden covers the open one). Regenerate with
// -update-traces only for a change that means to alter utilization.
func TestClosedUtilizationGolden(t *testing.T) {
	rel := smallRelation(t, 0)
	cfg := DefaultConfig()
	cfg.Telemetry = &TelemetrySpec{Window: 50 * sim.Millisecond}
	m := buildBERD(t, rel, cfg)
	defer m.Close()
	res, err := m.Run(workload.LowLow(rel.Cardinality()),
		RunSpec{MPL: 4, WarmupQueries: 10, MeasureQueries: 120})
	if err != nil {
		t.Fatal(err)
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	for i, n := range m.Nodes {
		u := res.NodeStats[i]
		fmt.Fprintf(&b, "node %d cpu_util=%s disk_util=%s cpu_busy_s=%s disk_busy_s=%s\n",
			u.Node, g(u.CPUUtil), g(u.DiskUtil), g(n.CPU.BusySeconds()), g(n.Disk.BusySeconds()))
	}
	fmt.Fprintf(&b, "machine cpu_util=%s disk_util=%s\n", g(res.CPUUtilization), g(res.DiskUtilization))
	checkTraceGolden(t, closedUtilGolden, []byte(b.String()))
}
