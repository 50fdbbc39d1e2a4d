package sim

import (
	"math"
	"testing"
)

func TestFacilityFCFS(t *testing.T) {
	e := New()
	f := NewFacility(e, "cpu")
	var doneAt []Time
	for i := 0; i < 3; i++ {
		e.Spawn("p", func(p *Proc) {
			f.UsePriority(p, 10*Millisecond, 0)
			doneAt = append(doneAt, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10 * Time(Millisecond), 20 * Time(Millisecond), 30 * Time(Millisecond)}
	for i := range want {
		if doneAt[i] != want[i] {
			t.Fatalf("completion %d at %v, want %v", i, doneAt[i], want[i])
		}
	}
}

func TestFacilityPriorityJumpsQueue(t *testing.T) {
	e := New()
	f := NewFacility(e, "cpu")
	var order []string
	// At t=0, "long" grabs the server for 10ms. At t=1ms, "normal" queues.
	// At t=2ms "urgent" queues with priority 1 and must be served before
	// "normal" despite arriving later (head-of-line priority).
	e.Spawn("long", func(p *Proc) {
		f.UsePriority(p, 10*Millisecond, 0)
		order = append(order, "long")
	})
	e.Spawn("normal", func(p *Proc) {
		p.Hold(Millisecond)
		f.UsePriority(p, Millisecond, 0)
		order = append(order, "normal")
	})
	e.Spawn("urgent", func(p *Proc) {
		p.Hold(2 * Millisecond)
		f.UsePriority(p, Millisecond, 1)
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
	e := New()
	f := NewFacility(e, "cpu")
	var longDone Time
	e.Spawn("long", func(p *Proc) {
		f.UsePriority(p, 10*Millisecond, 0)
		longDone = p.Now()
	})
	e.Spawn("urgent", func(p *Proc) {
		p.Hold(Millisecond)
		f.UsePriority(p, Millisecond, 5)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if longDone != 10*Time(Millisecond) {
		t.Fatalf("in-service request was preempted: done at %v", longDone)
	}
}

func TestFacilityFIFOWithinPriority(t *testing.T) {
	e := New()
	f := NewFacility(e, "cpu")
	var order []int
	e.Spawn("blocker", func(p *Proc) { f.UsePriority(p, 5*Millisecond, 0) })
	for i := 0; i < 4; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			p.Hold(Duration(i+1) * Microsecond)
			f.UsePriority(p, Millisecond, 1)
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
	e := New()
	f := NewFacility(e, "disk")
	e.Spawn("p", func(p *Proc) {
		f.UsePriority(p, 10*Millisecond, 0) // busy [0,10)
		p.Hold(10 * Millisecond)            // idle [10,20)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if u := f.Utilization(); math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("utilization = %g, want 0.5", u)
	}
}

func TestFacilityWaitAccounting(t *testing.T) {
	e := New()
	f := NewFacility(e, "f")
	var aDone, bDone Time
	e.Spawn("a", func(p *Proc) { f.UsePriority(p, 4*Millisecond, 0); aDone = p.Now() })
	e.Spawn("b", func(p *Proc) { f.UsePriority(p, 4*Millisecond, 0); bDone = p.Now() }) // waits 4ms
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if aDone != Time(4*Millisecond) || bDone != Time(8*Millisecond) {
		t.Fatalf("a done at %v, b at %v; want 4ms and 8ms (b queues behind a)", aDone, bDone)
	}
	if s := f.BusySeconds(); s != 0.008 {
		t.Fatalf("busy seconds = %g, want 0.008 (two 4ms services)", s)
	}
}

func TestFacilityResetStats(t *testing.T) {
	e := New()
	f := NewFacility(e, "f")
	e.Spawn("p", func(p *Proc) {
		f.UsePriority(p, 10*Millisecond, 0)
		f.ResetStats()
		p.Hold(10 * Millisecond)
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
	e := New()
	f := NewFacility(e, "f")
	e.Spawn("p", func(p *Proc) { f.UsePriority(p, -1, 0) })
	if err := e.Run(); err == nil {
		t.Fatal("negative service should surface as error")
	}
}
