package sim_test

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

func TestFacilityFCFS(t *testing.T) {
	e := sim.New()
	f := sim.NewFacility(e, "cpu")
	var doneAt []sim.Time
	for i := 0; i < 3; i++ {
		simtest.Spawn(e, "p", func(p *simtest.Proc) {
			simtest.Use(p, f, 10*sim.Millisecond, 0)
			doneAt = append(doneAt, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []sim.Time{10 * sim.Time(sim.Millisecond), 20 * sim.Time(sim.Millisecond), 30 * sim.Time(sim.Millisecond)}
	for i := range want {
		if doneAt[i] != want[i] {
			t.Fatalf("completion %d at %v, want %v", i, doneAt[i], want[i])
		}
	}
}

func TestFacilityPriorityJumpsQueue(t *testing.T) {
	e := sim.New()
	f := sim.NewFacility(e, "cpu")
	var order []string
	// At t=0, "long" grabs the server for 10ms. At t=1ms, "normal" queues.
	// At t=2ms "urgent" queues with priority 1 and must be served before
	// "normal" despite arriving later (head-of-line priority).
	simtest.Spawn(e, "long", func(p *simtest.Proc) {
		simtest.Use(p, f, 10*sim.Millisecond, 0)
		order = append(order, "long")
	})
	simtest.Spawn(e, "normal", func(p *simtest.Proc) {
		p.Hold(sim.Millisecond)
		simtest.Use(p, f, sim.Millisecond, 0)
		order = append(order, "normal")
	})
	simtest.Spawn(e, "urgent", func(p *simtest.Proc) {
		p.Hold(2 * sim.Millisecond)
		simtest.Use(p, f, sim.Millisecond, 1)
		order = append(order, "urgent")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"long", "urgent", "normal"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFacilityPriorityIsNonPreemptive(t *testing.T) {
	e := sim.New()
	f := sim.NewFacility(e, "cpu")
	var longDone sim.Time
	simtest.Spawn(e, "long", func(p *simtest.Proc) {
		simtest.Use(p, f, 10*sim.Millisecond, 0)
		longDone = p.Now()
	})
	simtest.Spawn(e, "urgent", func(p *simtest.Proc) {
		p.Hold(sim.Millisecond)
		simtest.Use(p, f, sim.Millisecond, 5)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if longDone != 10*sim.Time(sim.Millisecond) {
		t.Fatalf("in-service request was preempted: done at %v", longDone)
	}
}

func TestFacilityFIFOWithinPriority(t *testing.T) {
	e := sim.New()
	f := sim.NewFacility(e, "cpu")
	var order []int
	simtest.Spawn(e, "blocker", func(p *simtest.Proc) { simtest.Use(p, f, 5*sim.Millisecond, 0) })
	for i := 0; i < 4; i++ {
		i := i
		simtest.Spawn(e, "w", func(p *simtest.Proc) {
			p.Hold(sim.Duration(i+1) * sim.Microsecond)
			simtest.Use(p, f, sim.Millisecond, 1)
			order = append(order, i)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestFacilityUtilization(t *testing.T) {
	e := sim.New()
	f := sim.NewFacility(e, "disk")
	simtest.Spawn(e, "p", func(p *simtest.Proc) {
		simtest.Use(p, f, 10*sim.Millisecond, 0) // busy [0,10)
		p.Hold(10 * sim.Millisecond)             // idle [10,20)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if u := f.Utilization(); math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("utilization = %g, want 0.5", u)
	}
}

func TestFacilityWaitAccounting(t *testing.T) {
	e := sim.New()
	f := sim.NewFacility(e, "f")
	var aDone, bDone sim.Time
	simtest.Spawn(e, "a", func(p *simtest.Proc) { simtest.Use(p, f, 4*sim.Millisecond, 0); aDone = p.Now() })
	simtest.Spawn(e, "b", func(p *simtest.Proc) { simtest.Use(p, f, 4*sim.Millisecond, 0); bDone = p.Now() }) // waits 4ms
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if aDone != sim.Time(4*sim.Millisecond) || bDone != sim.Time(8*sim.Millisecond) {
		t.Fatalf("a done at %v, b at %v; want 4ms and 8ms (b queues behind a)", aDone, bDone)
	}
	if s := f.BusySeconds(); s != 0.008 {
		t.Fatalf("busy seconds = %g, want 0.008 (two 4ms services)", s)
	}
}

func TestFacilityResetStats(t *testing.T) {
	e := sim.New()
	f := sim.NewFacility(e, "f")
	simtest.Spawn(e, "p", func(p *simtest.Proc) {
		simtest.Use(p, f, 10*sim.Millisecond, 0)
		f.ResetStats()
		p.Hold(10 * sim.Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if s := f.BusySeconds(); s != 0 {
		t.Fatalf("busy seconds after reset = %g", s)
	}
	if u := f.Utilization(); u != 0 {
		t.Fatalf("utilization after reset = %g", u)
	}
}

func TestFacilityNegativeServicePanics(t *testing.T) {
	e := sim.New()
	f := sim.NewFacility(e, "f")
	simtest.Spawn(e, "p", func(p *simtest.Proc) { simtest.Use(p, f, -1, 0) })
	if err := e.Run(); err == nil {
		t.Fatal("negative service should surface as error")
	}
}
