package rng_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gamma"
	"repro/internal/rng"
	"repro/internal/storage"
	"repro/internal/workload"
)

// A campaign job builds a machine over a shared image, runs it and closes
// it. Closing hands its streams' generator states to the free list, so
// after one warm-up job a second job on the same image allocates no
// generator state: its disks' and terminals' streams all reuse released
// ones.
func TestSecondJobStreamStateAllocs(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 2000, Seed: 3})
	cfg := gamma.DefaultConfig()
	img, err := gamma.NewImage(rel, core.NewRangeForRelation(rel, storage.Unique1, 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.LowLow(rel.Cardinality())
	job := func() {
		m, err := gamma.New(img, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if _, err := m.Run(mix, gamma.RunSpec{MPL: 16, WarmupQueries: 5, MeasureQueries: 20}); err != nil {
			t.Fatal(err)
		}
	}
	job()
	before := rng.FreshStates()
	job()
	if n := rng.FreshStates() - before; n != 0 {
		t.Fatalf("the second job allocated %d generator states, want 0", n)
	}
}
