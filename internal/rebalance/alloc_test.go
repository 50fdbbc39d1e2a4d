//go:build !race

package rebalance

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// TestMigrationStepAllocs guards the copier's per-page hot path: a
// migration moves tens of thousands of pages per transition, each step
// being a throttle hold plus an I/O call plus counter updates — garbage
// here would dominate the background copy and skew the foreground runs
// it competes with.
func TestMigrationStepAllocs(t *testing.T) {
	eng := sim.New()
	cp := &Copier{IO: nopIO{}, RatePagesPerSec: 1 << 20, PageBytes: 8192}
	plan := BuildPlan([]TupleMove{{Src: 0, Dst: 1, SrcPage: 1, DstPage: 2}})
	var avg float64
	simtest.Spawn(eng, "copy", func(p *simtest.Proc) {
		// Warm once so pooled event records exist, then measure.
		_ = runCopy(eng, p, cp, plan)
		avg = testing.AllocsPerRun(500, func() {
			if err := runCopy(eng, p, cp, plan); err != nil {
				t.Errorf("Run: %v", err)
			}
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("migration copy step allocates %.2f/op, want 0", avg)
	}
}
