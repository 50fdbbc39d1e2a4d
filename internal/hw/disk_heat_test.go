package hw

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// Two concurrent reads through one disk: the first is served immediately
// (zero queue wait), the second waits for the arm. The wait must land on
// the second request's fragment accumulator, in simulated nanoseconds.
func TestDiskReadHeatQueueWaitAttribution(t *testing.T) {
	e, _, _, disk := testRig(t)
	hm := obs.NewHeatMap()
	first := hm.Frag("r", 0, obs.FragPrimary)
	second := hm.Frag("r", 1, obs.FragPrimary)
	simtest.Spawn(e, "a", func(p *simtest.Proc) {
		if err := readHeat(p, disk, 10, first); err != nil {
			t.Error(err)
		}
	})
	simtest.Spawn(e, "b", func(p *simtest.Proc) {
		if err := readHeat(p, disk, 5000, second); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if first.QueueWaitNS != 0 {
		t.Errorf("first request waited %dns, want 0 (disk was idle)", first.QueueWaitNS)
	}
	if second.QueueWaitNS <= 0 {
		t.Errorf("second request waited %dns, want > 0 (queued behind the first)", second.QueueWaitNS)
	}
	// The wait histogram saw both requests, in milliseconds.
	if first.Wait.N() != 1 || second.Wait.N() != 1 {
		t.Errorf("wait samples = %d/%d, want 1/1", first.Wait.N(), second.Wait.N())
	}
	if got, want := second.Wait.Stats().Max, float64(second.QueueWaitNS)/1e6; got != want {
		t.Errorf("histogram max = %gms, want %gms", got, want)
	}
	if disk.Reads() != 2 {
		t.Errorf("reads = %d", disk.Reads())
	}
}

// Read must stay exactly ReadHeat with a nil handle: same schedule, same
// counters, no heat side effects.
func TestDiskReadHeatNilMatchesRead(t *testing.T) {
	runOnce := func(heat *obs.FragHeat) sim.Time {
		e := sim.New()
		p := DefaultParams()
		cpu := NewCPU(e, "cpu0", p)
		disk := NewDisk(e, "disk0", p, cpu, rng.NewFactory(1).Stream("lat"))
		var done sim.Time
		simtest.Spawn(e, "p", func(pr *simtest.Proc) {
			if err := readHeat(pr, disk, 42, heat); err != nil {
				t.Error(err)
			}
			done = pr.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	plain := runOnce(nil)
	h := obs.NewHeatMap().Frag("r", 0, obs.FragPrimary)
	heated := runOnce(h)
	if plain != heated {
		t.Errorf("heat attribution changed the schedule: %v vs %v", plain, heated)
	}
	if h.Wait.N() != 1 {
		t.Errorf("wait samples = %d, want 1", h.Wait.N())
	}
}
