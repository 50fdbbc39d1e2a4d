package buffer

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/rng"
	"repro/internal/sim"
)

func rig(t *testing.T, capacity int) (*sim.Engine, *hw.Disk, *Pool) {
	t.Helper()
	e := sim.New()
	p := hw.DefaultParams()
	cpu := hw.NewCPU(e, "cpu", p)
	disk := hw.NewDisk(e, "disk", p, cpu, rng.NewFactory(3).Stream("lat"))
	return e, disk, NewPool(e, "buf", capacity, disk)
}

func run(t *testing.T, e *sim.Engine, fn func(p *sim.Proc)) {
	t.Helper()
	e.Spawn("test", fn)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMissThenHit(t *testing.T) {
	e, disk, pool := rig(t, 8)
	run(t, e, func(p *sim.Proc) {
		pool.Read(p, 100)
		first := p.Now()
		pool.Read(p, 100) // hit: free
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
	run(t, e, func(p *sim.Proc) {
		pool.Read(p, 1)
		pool.Read(p, 2)
		pool.Read(p, 3) // evicts 1
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
	run(t, e, func(p *sim.Proc) {
		pool.Read(p, 1)
		pool.Read(p, 2)
		pool.Read(p, 1) // touch 1; now 2 is LRU
		pool.Read(p, 3) // evicts 2
		if !pool.Contains(1) || pool.Contains(2) {
			t.Error("LRU order not refreshed by hit")
		}
	})
}

func TestZeroCapacityAlwaysReads(t *testing.T) {
	e, disk, pool := rig(t, 0)
	run(t, e, func(p *sim.Proc) {
		pool.Read(p, 5)
		pool.Read(p, 5)
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
		e.Spawn("reader", func(p *sim.Proc) {
			pool.Read(p, 42)
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
	run(t, e, func(p *sim.Proc) {
		pool.Read(p, 1)
		pool.Read(p, 1)
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
	NewPool(e, "buf", -1, disk)
}
