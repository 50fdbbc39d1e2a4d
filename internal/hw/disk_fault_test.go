package hw

import (
	"errors"
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// Fault-injection behaviors of the disk model: fail-stop rejection and
// in-flight abort, transient read errors, and latency degradation. These are
// the surfaces fault.Injector drives (DESIGN.md §8).

func TestDiskFailStopRejectsUntilRepair(t *testing.T) {
	e, _, _, disk := testRig(t)
	var errs []error
	simtest.Spawn(e, "p", func(pr *simtest.Proc) {
		errs = append(errs, readHeat(pr, disk, 10, nil))
		disk.Fail()
		errs = append(errs, readHeat(pr, disk, 11, nil))
		errs = append(errs, writePage(pr, disk, 12))
		disk.Repair()
		errs = append(errs, readHeat(pr, disk, 13, nil))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil {
		t.Fatalf("healthy read failed: %v", errs[0])
	}
	if !errors.Is(errs[1], ErrDiskFailed) || !errors.Is(errs[2], ErrDiskFailed) {
		t.Fatalf("fail-stopped disk served requests: read=%v write=%v", errs[1], errs[2])
	}
	if errs[3] != nil {
		t.Fatalf("repaired disk rejected a read: %v", errs[3])
	}
	if disk.Reads() != 2 {
		t.Fatalf("reads = %d, want 2 (rejected requests must not count)", disk.Reads())
	}
}

// Fail while requests are queued behind an in-service one: everyone parked
// on the disk gets ErrDiskFailed instead of blocking forever.
func TestDiskFailAbortsQueuedAndInFlight(t *testing.T) {
	e, p, _, disk := testRig(t)
	var errs [3]error
	simtest.Spawn(e, "inflight", func(pr *simtest.Proc) { errs[0] = readHeat(pr, disk, 500*p.PagesPerCylinder, nil) })
	for i := 1; i <= 2; i++ {
		i := i
		simtest.Spawn(e, "queued", func(pr *simtest.Proc) {
			pr.Hold(sim.Microsecond)
			errs[i] = readHeat(pr, disk, i, nil)
		})
	}
	simtest.Spawn(e, "killer", func(pr *simtest.Proc) {
		pr.Hold(2 * sim.Microsecond) // all three requests are on the disk now
		disk.Fail()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if !errors.Is(err, ErrDiskFailed) {
			t.Fatalf("request %d: err = %v, want ErrDiskFailed", i, err)
		}
	}
}

// A Repair that lands inside the in-flight transfer does not save it: the
// transfer Fail aborted still errors out when its arm event fires, and a
// request made after the Repair, queued behind it, is served.
func TestDiskRepairDuringTransfer(t *testing.T) {
	e, p, _, disk := testRig(t)
	var aborted, after error
	var abortedAt, afterAt sim.Time
	simtest.Spawn(e, "inflight", func(pr *simtest.Proc) {
		aborted = readHeat(pr, disk, 500*p.PagesPerCylinder, nil)
		abortedAt = pr.Now()
	})
	simtest.Spawn(e, "outage", func(pr *simtest.Proc) {
		pr.Hold(sim.Microsecond)
		disk.Fail()
		pr.Hold(sim.Microsecond)
		disk.Repair()
		after = readHeat(pr, disk, 7, nil)
		afterAt = pr.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(aborted, ErrDiskFailed) {
		t.Fatalf("transfer in flight across Fail and Repair: err = %v, want ErrDiskFailed", aborted)
	}
	if abortedAt <= sim.Time(2*sim.Microsecond) {
		t.Fatalf("aborted transfer returned at %v, before its arm event", abortedAt)
	}
	if after != nil {
		t.Fatalf("read issued after Repair: err = %v", after)
	}
	if afterAt <= abortedAt {
		t.Fatalf("read issued after Repair finished at %v, not after the aborted transfer (%v)", afterAt, abortedAt)
	}
	if disk.QueueLen() != 0 || disk.Reads() != 2 {
		t.Fatalf("queue %d, reads %d after the run, want 0 and 2", disk.QueueLen(), disk.Reads())
	}
}

func TestDiskFailNextReadsTransient(t *testing.T) {
	e, _, _, disk := testRig(t)
	disk.FailNextReads(2)
	var errs []error
	simtest.Spawn(e, "p", func(pr *simtest.Proc) {
		for i := 0; i < 3; i++ {
			errs = append(errs, readHeat(pr, disk, 10+i, nil))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(errs[0], ErrDiskIO) || !errors.Is(errs[1], ErrDiskIO) {
		t.Fatalf("armed transients did not fire: %v, %v", errs[0], errs[1])
	}
	if errs[2] != nil {
		t.Fatalf("disk did not recover after the burst: %v", errs[2])
	}
	if disk.Reads() != 1 {
		t.Fatalf("reads = %d, want 1 (transient failures must not count)", disk.Reads())
	}
}
