package gamma

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

func rangePlacement(rel *storage.Relation, cfg Config) core.Placement {
	return core.NewRangeForRelation(rel, storage.Unique1, testProcs)
}

func TestSharingOffByDefault(t *testing.T) {
	rel := smallRelation(t, 0)
	m := buildRange(t, rel, DefaultConfig())
	if m.Host.Shared != nil {
		t.Fatal("shared-scan manager armed without Config.Sharing")
	}
	res, err := m.Run(workload.LowLow(rel.Cardinality()), RunSpec{MPL: 2, WarmupQueries: 5, MeasureQueries: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sharing != nil {
		t.Error("disabled run carried sharing stats")
	}
}

// Sharing composes with degraded-mode scheduling (attempt-tagged batches):
// a machine with both armed builds, runs, and still answers correctly.
func TestSharingComposesWithDegradedMode(t *testing.T) {
	rel := smallRelation(t, 0)
	cfg := DefaultConfig()
	cfg.Sharing = &SharingSpec{}
	cfg.ChainedReplicas = true
	pl := rangePlacement(rel, cfg)
	m, err := Build(rel, pl, cfg)
	if err != nil {
		t.Fatalf("Build(sharing+replicas) err = %v, want composed build to succeed", err)
	}
	res, err := m.Run(workload.LowLow(rel.Cardinality()), RunSpec{MPL: 4, WarmupQueries: 5, MeasureQueries: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sharing == nil || res.Sharing.Batches == 0 {
		t.Fatalf("sharing stats = %+v, want flushed batches under degraded mode", res.Sharing)
	}
}

func TestConfigValidateSpecs(t *testing.T) {
	rel := smallRelation(t, 0)
	for name, arm := range map[string]func(*Config){
		"neg-share-window": func(c *Config) { c.Sharing = &SharingSpec{Window: -sim.Second} },
		"neg-telem-window": func(c *Config) { c.Telemetry = &TelemetrySpec{Window: -sim.Second} },
		"bad-burn":         func(c *Config) { c.Telemetry = &TelemetrySpec{BurnBudget: 1.5} },
		"neg-topk":         func(c *Config) { c.Heat = &HeatSpec{TopK: -1} },
	} {
		cfg := DefaultConfig()
		arm(&cfg)
		if _, err := Build(rel, rangePlacement(rel, cfg), cfg); err == nil {
			t.Errorf("%s: Build accepted invalid config", name)
		}
	}
}

// sharingRun executes one hot-spot run at the given MPL with or without
// sharing and returns the result.
func sharingRun(t *testing.T, rel *storage.Relation, share bool, mpl int) RunResult {
	t.Helper()
	// A small pool relative to the fragments keeps the run disk-bound —
	// the regime where re-reads exist for sharing to save.
	cfg := DefaultConfig()
	cfg.BufferPages = 6
	if share {
		cfg.Sharing = &SharingSpec{Window: 10 * sim.Millisecond}
	}
	m := buildRange(t, rel, cfg)
	mix := workload.ModerateModerate(rel.Cardinality()).WithHotSpot(0.8, 0.05)
	res, err := m.Run(mix, RunSpec{MPL: mpl, WarmupQueries: 20, MeasureQueries: 150})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSharingSavesDiskReads is the tentpole's behavioural claim: with an
// overlapping (hot-spot) selection workload at MPL >= 8, predicate-grouped
// batching reads fewer disk pages per query than unshared execution, while
// producing the same query answers.
func TestSharingSavesDiskReads(t *testing.T) {
	rel := smallRelation(t, 0)
	off := sharingRun(t, rel, false, 8)
	on := sharingRun(t, rel, true, 8)

	if on.Sharing == nil {
		t.Fatal("sharing run carried no stats")
	}
	if on.Sharing.Batches == 0 || on.Sharing.SharedOps == 0 {
		t.Fatalf("no batching happened: %+v", *on.Sharing)
	}
	if on.Sharing.PagesSaved() <= 0 {
		t.Fatalf("no pages deduped: %+v", *on.Sharing)
	}
	if on.DiskReadsPerQry >= off.DiskReadsPerQry {
		t.Errorf("sharing did not save disk reads: on %.2f/qry, off %.2f/qry",
			on.DiskReadsPerQry, off.DiskReadsPerQry)
	}
	// (Per-query answer equivalence is proven byte-for-byte by the exec
	// layer's shared-batch property test; aggregate means are not
	// comparable here because the two schedules admit different queries
	// into the measurement window.)
	t.Logf("disk reads/query: off %.2f, on %.2f (%.1f%% saved); %s",
		off.DiskReadsPerQry, on.DiskReadsPerQry,
		100*(1-on.DiskReadsPerQry/off.DiskReadsPerQry), on.Sharing)
}

// TestSharingDeterministic: two identical sharing runs produce identical
// results — batching decisions depend only on simulated time.
func TestSharingDeterministic(t *testing.T) {
	rel := smallRelation(t, 0)
	a := sharingRun(t, rel, true, 8)
	b := sharingRun(t, rel, true, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sharing runs diverged:\n%+v\n%+v", a, b)
	}
}
