package sim

import (
	"math/rand"
	"testing"
)

func TestBusyClockUtilization(t *testing.T) {
	var c BusyClock
	c.Reset(0)
	c.Start(2) // busy [2,5), idle [5,8), busy [8,...)
	c.Stop(5)
	c.Start(8)
	if got := c.Utilization(8); got != 3.0/8 {
		t.Fatalf("utilization at 8 = %g, want 3/8", got)
	}
	if got := c.Utilization(12); got != 7.0/12 {
		t.Fatalf("utilization at 12 = %g, want 7/12 (open period counts)", got)
	}
}

// BusySeconds backs the windowed-utilization telemetry: differencing it
// across window boundaries must reproduce per-window busy time exactly.
func TestBusyClockBusySeconds(t *testing.T) {
	var c BusyClock
	c.Reset(0)
	c.Start(Time(2 * Second))
	c.Stop(Time(5 * Second))
	c.Start(Time(8 * Second))
	if got := c.BusySeconds(Time(8 * Second)); got != 3 {
		t.Fatalf("busy seconds at 8s = %g, want 3", got)
	}
	if got := c.BusySeconds(Time(12 * Second)); got != 7 {
		t.Fatalf("busy seconds at 12s = %g, want 7", got)
	}
	if frac := (c.BusySeconds(Time(12*Second)) - c.BusySeconds(Time(8*Second))) / 4; frac != 1 {
		t.Fatalf("windowed busy fraction = %g, want 1", frac)
	}
}

// Reset discards the warm-up but keeps the busy state: a period open at
// the reset counts from the reset on.
func TestBusyClockReset(t *testing.T) {
	var c BusyClock
	c.Reset(0)
	c.Start(0) // warm-up transient: busy [0,10)
	c.Reset(10)
	c.Stop(20) // busy [10,20), idle [20,30)
	if got := c.Utilization(30); got != 0.5 {
		t.Fatalf("post-reset utilization = %g, want 0.5", got)
	}
	if got := c.BusySeconds(30); got != 10/1e9 {
		t.Fatalf("post-reset busy seconds = %g, want 1e-8", got)
	}
}

// A window of zero length holds only the state it opened with, whatever
// happens at that same instant afterwards.
func TestBusyClockZeroElapsed(t *testing.T) {
	var c BusyClock
	c.Reset(5)
	c.Start(5)
	if got := c.Utilization(5); got != 0 {
		t.Fatalf("idle-opened zero window = %g, want 0", got)
	}
	c.Reset(5)
	c.Stop(5)
	if got := c.Utilization(5); got != 1 {
		t.Fatalf("busy-opened zero window = %g, want 1", got)
	}
	if got := c.BusySeconds(5); got != 0 {
		t.Fatalf("zero window busy seconds = %g, want 0", got)
	}
}

// floatBusy is a reference model of the clock: a float time-weighted
// integral of the 0/1 busy indicator, advanced at every state change.
type floatBusy struct {
	origin, last, area float64
	busy, originBusy   bool
}

func (f *floatBusy) set(now Time, busy bool) {
	t := float64(now)
	if f.busy {
		f.area += t - f.last
	}
	f.last, f.busy = t, busy
}

func (f *floatBusy) integral(now Time) float64 {
	if f.busy {
		return f.area + (float64(now) - f.last)
	}
	return f.area
}

// The integer clock must give the same float64 bits as float accumulation:
// every operand is a whole number of nanoseconds below 2^53, so the float
// sums are exact and the two agree bit for bit.
func TestBusyClockMatchesFloatIntegral(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var c BusyClock
		var ref floatBusy
		now := Time(r.Int63n(1e12))
		c.Reset(now)
		ref = floatBusy{origin: float64(now), last: float64(now)}
		for step := 0; step < 200; step++ {
			if r.Intn(3) > 0 {
				now += Time(r.Int63n(int64(50 * Millisecond)))
			}
			switch r.Intn(5) {
			case 0, 1:
				c.Start(now)
				ref.set(now, true)
			case 2, 3:
				c.Stop(now)
				ref.set(now, false)
			case 4:
				c.Reset(now)
				ref = floatBusy{origin: float64(now), last: float64(now), busy: ref.busy, originBusy: ref.busy}
			}
			wantU := ref.integral(now) / (float64(now) - ref.origin)
			if float64(now) <= ref.origin {
				wantU = 0
				if ref.originBusy {
					wantU = 1
				}
			}
			if got := c.Utilization(now); got != wantU {
				t.Fatalf("trial %d step %d: utilization %v, float model %v", trial, step, got, wantU)
			}
			if got, want := c.BusySeconds(now), ref.integral(now)/1e9; got != want {
				t.Fatalf("trial %d step %d: busy seconds %v, float model %v", trial, step, got, want)
			}
		}
	}
}
