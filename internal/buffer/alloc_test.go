//go:build !race

// Allocation-regression guard for the buffer pool's hit path, which runs
// for every resident page access of every query. Excluded under -race
// because race instrumentation itself allocates.

package buffer

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// A resident hit — through Read, and through ReadHeat with heat armed —
// moves the page to the LRU front and bumps counters, and must allocate
// nothing.
func TestReadHitAllocs(t *testing.T) {
	e, _, pool := rig(t, 8)
	h := obs.NewHeatMap().Frag("r", 0, obs.FragPrimary)
	run(t, e, func(p *sim.Proc) {
		if err := pool.Read(p, 100); err != nil { // miss: makes the page resident
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := pool.Read(p, 100); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("resident Read hit allocates %v per op, want 0", n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := pool.ReadHeat(p, 100, h); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("resident ReadHeat hit allocates %v per op, want 0", n)
		}
	})
	if pool.Misses() != 1 || pool.Hits() != 202 {
		t.Fatalf("hits=%d misses=%d, want 202/1", pool.Hits(), pool.Misses())
	}
}
