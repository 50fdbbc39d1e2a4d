package buffer

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim/simtest"
)

func TestReadHeatHitMiss(t *testing.T) {
	e, disk, pool := rig(t, 8)
	hm := obs.NewHeatMap()
	h := hm.Frag("r", 0, obs.FragPrimary)
	run(t, e, func(p *simtest.Proc) {
		readHeat(p, pool, 100, h) // miss
		readHeat(p, pool, 100, h) // resident hit
	})
	if h.BufMisses != 1 || h.BufHits != 1 {
		t.Fatalf("heat hits=%d misses=%d, want 1/1", h.BufHits, h.BufMisses)
	}
	if disk.Reads() != int64(h.BufMisses) {
		t.Fatalf("disk reads %d != heat misses %d", disk.Reads(), h.BufMisses)
	}
	// The pool's own counters are unaffected by heat attribution.
	if pool.Hits() != 1 || pool.Misses() != 1 {
		t.Fatalf("pool hits=%d misses=%d", pool.Hits(), pool.Misses())
	}
}

func TestReadHeatPiggybackCountsHit(t *testing.T) {
	e, disk, pool := rig(t, 8)
	hm := obs.NewHeatMap()
	h := hm.Frag("r", 0, obs.FragPrimary)
	for i := 0; i < 4; i++ {
		simtest.Spawn(e, "reader", func(p *simtest.Proc) {
			readHeat(p, pool, 42, h)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// One physical read; the three piggybacked waiters are hits — keeping
	// the per-fragment miss count equal to the disk read count.
	if h.BufMisses != 1 || h.BufHits != 3 {
		t.Fatalf("heat hits=%d misses=%d, want 3/1", h.BufHits, h.BufMisses)
	}
	if disk.Reads() != 1 {
		t.Fatalf("disk reads = %d, want 1 (coalesced)", disk.Reads())
	}
}

func TestReadHeatZeroCapacityCountsMiss(t *testing.T) {
	e, disk, pool := rig(t, 0)
	hm := obs.NewHeatMap()
	h := hm.Frag("r", 0, obs.FragPrimary)
	run(t, e, func(p *simtest.Proc) {
		readHeat(p, pool, 5, h)
		readHeat(p, pool, 5, h)
	})
	if h.BufMisses != 2 || h.BufHits != 0 {
		t.Fatalf("heat hits=%d misses=%d, want 0/2", h.BufHits, h.BufMisses)
	}
	if disk.Reads() != 2 {
		t.Fatalf("disk reads = %d", disk.Reads())
	}
}

func TestReadHeatNilMatchesRead(t *testing.T) {
	e, _, pool := rig(t, 8)
	run(t, e, func(p *simtest.Proc) {
		// Read is ReadHeat with a nil handle; both paths share the schedule.
		readHeat(p, pool, 1, nil)
		readHeat(p, pool, 1, nil)
	})
	if pool.Hits() != 1 || pool.Misses() != 1 {
		t.Fatalf("pool hits=%d misses=%d", pool.Hits(), pool.Misses())
	}
}
