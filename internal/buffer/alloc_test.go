//go:build !race

// Allocation-regression guard for the buffer pool's hit path, which runs
// for every resident page access of every query. Excluded under -race
// because race instrumentation itself allocates.

package buffer

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim/simtest"
)

// A resident hit — through Read, and through ReadHeat with heat armed —
// moves the page to the LRU front and bumps counters, and must allocate
// nothing.
func TestReadHitAllocs(t *testing.T) {
	e, _, pool := rig(t, 8)
	h := obs.NewHeatMap().Frag("r", 0, obs.FragPrimary)
	run(t, e, func(p *simtest.Proc) {
		if err := readHeat(p, pool, 100, nil); err != nil { // miss: makes the page resident
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := readHeat(p, pool, 100, nil); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("resident Read hit allocates %v per op, want 0", n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := readHeat(p, pool, 100, h); err != nil {
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

// A miss that evicts a page, once the pool is full and one latch has
// been used, allocates nothing beyond the disk read it wraps: the page
// takes the evicted page's frame and the read borrows the free latch.
func TestReadMissAllocs(t *testing.T) {
	e, disk, pool := rig(t, 8)
	page := 1000
	run(t, e, func(p *simtest.Proc) {
		for ; page < 1008; page++ { // fill every frame
			if err := readHeat(p, pool, page, nil); err != nil {
				t.Fatal(err)
			}
		}
		diskRead := testing.AllocsPerRun(100, func() {
			if err := diskRead(p, disk, page, nil); err != nil {
				t.Fatal(err)
			}
			page++
		})
		misses := pool.Misses()
		poolMiss := testing.AllocsPerRun(100, func() {
			if err := readHeat(p, pool, page, nil); err != nil {
				t.Fatal(err)
			}
			page++
		})
		if got := pool.Misses() - misses; got != 101 {
			t.Fatalf("%d misses, want 101", got)
		}
		if pool.Len() != 8 {
			t.Fatalf("len = %d, want 8", pool.Len())
		}
		if poolMiss > diskRead {
			t.Errorf("a Read miss allocates %v per op, the disk read it wraps %v", poolMiss, diskRead)
		}
	})
}
