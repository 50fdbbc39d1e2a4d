package buffer

import (
	"errors"
	"testing"

	"repro/internal/hw"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

func rig(t *testing.T, capacity int) (*sim.Engine, *hw.Disk, *Pool) {
	t.Helper()
	e := sim.New()
	p := hw.DefaultParams()
	cpu := hw.NewCPU(e, "cpu", p)
	disk := hw.NewDisk(e, "disk", p, cpu, rng.NewFactory(3).Stream("lat"))
	return e, disk, NewPool(e, capacity, disk)
}

func run(t *testing.T, e *sim.Engine, fn func(p *simtest.Proc)) {
	t.Helper()
	simtest.Spawn(e, "test", fn)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMissThenHit(t *testing.T) {
	e, disk, pool := rig(t, 8)
	run(t, e, func(p *simtest.Proc) {
		readHeat(p, pool, 100, nil)
		first := p.Now()
		readHeat(p, pool, 100, nil) // hit: free
		if p.Now() != first {
			t.Error("hit consumed simulated time")
		}
	})
	if pool.Hits() != 1 || pool.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", pool.Hits(), pool.Misses())
	}
	if disk.Reads() != 1 {
		t.Fatalf("disk reads = %d", disk.Reads())
	}
	if pool.HitRate() != 0.5 {
		t.Fatalf("hit rate = %g", pool.HitRate())
	}
}

func TestLRUEviction(t *testing.T) {
	e, _, pool := rig(t, 2)
	run(t, e, func(p *simtest.Proc) {
		readHeat(p, pool, 1, nil)
		readHeat(p, pool, 2, nil)
		readHeat(p, pool, 3, nil) // evicts 1
		if pool.Contains(1) {
			t.Error("page 1 should be evicted")
		}
		if !pool.Contains(2) || !pool.Contains(3) {
			t.Error("pages 2,3 should be resident")
		}
		if pool.Len() != 2 {
			t.Errorf("len = %d", pool.Len())
		}
	})
}

func TestLRUTouchRefreshes(t *testing.T) {
	e, _, pool := rig(t, 2)
	run(t, e, func(p *simtest.Proc) {
		readHeat(p, pool, 1, nil)
		readHeat(p, pool, 2, nil)
		readHeat(p, pool, 1, nil) // touch 1; now 2 is LRU
		readHeat(p, pool, 3, nil) // evicts 2
		if !pool.Contains(1) || pool.Contains(2) {
			t.Error("LRU order not refreshed by hit")
		}
	})
}

func TestZeroCapacityAlwaysReads(t *testing.T) {
	e, disk, pool := rig(t, 0)
	run(t, e, func(p *simtest.Proc) {
		readHeat(p, pool, 5, nil)
		readHeat(p, pool, 5, nil)
	})
	if disk.Reads() != 2 {
		t.Fatalf("disk reads = %d, want 2 with caching disabled", disk.Reads())
	}
	if pool.Hits() != 0 {
		t.Fatalf("hits = %d", pool.Hits())
	}
}

func TestConcurrentMissesCoalesce(t *testing.T) {
	e, disk, pool := rig(t, 8)
	done := 0
	for i := 0; i < 4; i++ {
		simtest.Spawn(e, "reader", func(p *simtest.Proc) {
			readHeat(p, pool, 42, nil)
			done++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
	if disk.Reads() != 1 {
		t.Fatalf("disk reads = %d, want 1 (coalesced)", disk.Reads())
	}
	if pool.Misses() != 1 || pool.Hits() != 3 {
		t.Fatalf("misses=%d hits=%d", pool.Misses(), pool.Hits())
	}
}

func TestResetStats(t *testing.T) {
	e, _, pool := rig(t, 8)
	run(t, e, func(p *simtest.Proc) {
		readHeat(p, pool, 1, nil)
		readHeat(p, pool, 1, nil)
	})
	pool.ResetStats()
	if pool.Hits() != 0 || pool.Misses() != 0 {
		t.Fatal("stats not reset")
	}
	if !pool.Contains(1) {
		t.Fatal("ResetStats must not evict pages")
	}
}

func TestNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative capacity did not panic")
		}
	}()
	e := sim.New()
	p := hw.DefaultParams()
	cpu := hw.NewCPU(e, "cpu", p)
	disk := hw.NewDisk(e, "disk", p, cpu, rng.NewFactory(3).Stream("lat"))
	NewPool(e, -1, disk)
}

// Three readers piggyback on a read that the disk fails. In the instant
// the failed reader resumes, before the piggybackers do, a fourth reader
// misses on another page and takes a latch from the free list. The failed
// read's latch must not be that one: every piggybacker returns the failed
// read's error, and nobody is left parked.
func TestPiggybackersSurviveLatchReuse(t *testing.T) {
	e, disk, pool := rig(t, 8)
	errs := make(map[string]error)
	read := func(name string, page int) {
		simtest.Spawn(e, name, func(p *simtest.Proc) { errs[name] = readHeat(p, pool, page, nil) })
	}
	read("busy", 5)  // occupies the arm, so the next read waits in the queue
	read("first", 1) // queued: the disk failure fails it at once
	for _, name := range []string{"pig1", "pig2", "pig3"} {
		read(name, 1)
	}
	simtest.Spawn(e, "fourth", func(p *simtest.Proc) {
		p.Hold(sim.Microsecond)
		disk.Fail() // wakes "first" with the error, ahead of us
		disk.Repair()
		p.Hold(0) // resume after "first" has fired its latch
		errs["fourth"] = readHeat(p, pool, 2, nil)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	first := errs["first"]
	if !errors.Is(first, hw.ErrDiskFailed) {
		t.Fatalf("first read: %v, want a failed-disk error", first)
	}
	for _, name := range []string{"pig1", "pig2", "pig3"} {
		if err, ok := errs[name]; !ok || err != first {
			t.Errorf("%s returned %v (done %v), want the failed read's %v", name, err, ok, first)
		}
	}
	if err := errs["fourth"]; err != nil {
		t.Errorf("fourth read: %v", err)
	}
	if n := simtest.Parked(e); n != 0 {
		t.Errorf("%d processes still parked", n)
	}
	if pool.Hits() != 3 || pool.Misses() != 3 {
		t.Errorf("hits=%d misses=%d, want 3/3", pool.Hits(), pool.Misses())
	}
}
