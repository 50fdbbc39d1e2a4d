//go:build !race

// Allocation-regression guards for the kernel fast paths. These assert the
// zero-allocation contract the DESIGN.md kernel section documents; they are
// excluded under -race because race instrumentation itself allocates.

package sim_test

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// drainTo pre-warms an engine's pool/free list by scheduling and draining
// one event, so steady-state measurements never see first-use growth.
func warm(e *sim.Engine) {
	e.Schedule(sim.Microsecond, func() {})
	if err := e.Run(); err != nil {
		panic(err)
	}
}

var nop = func() {}

// The heap path: a future-dated Schedule plus its dispatch must reuse the
// pooled record and allocate nothing.
func TestScheduleHeapPathAllocs(t *testing.T) {
	e := sim.New()
	warm(e)
	if n := testing.AllocsPerRun(100, func() {
		e.Schedule(sim.Microsecond, nop)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("heap-path Schedule+Run allocates %v per op, want 0", n)
	}
}

// The ready-ring path: a zero-delay Schedule (the Wake shape) bypasses the
// heap entirely and must also be allocation-free.
func TestScheduleReadyRingPathAllocs(t *testing.T) {
	e := sim.New()
	warm(e)
	if n := testing.AllocsPerRun(100, func() {
		e.Schedule(0, nop)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ready-ring Schedule+Run allocates %v per op, want 0", n)
	}
}

type countingHandler struct{ n int }

func (h *countingHandler) HandleEvent() { h.n++ }

// ScheduleHandler stores the handler's interface words in the pooled
// record — no closure, no allocation.
func TestScheduleHandlerAllocs(t *testing.T) {
	e := sim.New()
	warm(e)
	h := &countingHandler{}
	if n := testing.AllocsPerRun(100, func() {
		e.ScheduleHandler(sim.Microsecond, h)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ScheduleHandler+Run allocates %v per op, want 0", n)
	}
	if h.n == 0 {
		t.Fatal("handler never ran")
	}
}

// The disabled-tracing span path is a single branch: no timestamp capture,
// no event construction, no allocation.
func TestNilSinkSpanAllocs(t *testing.T) {
	e := sim.New()
	if e.Tracing() {
		t.Fatal("fresh engine has a sink")
	}
	if n := testing.AllocsPerRun(100, func() {
		s := e.StartSpan()
		if s.Active() {
			t.Fatal("span active without a sink")
		}
		s.End(0, "cat", "name", 0, "")
	}); n != 0 {
		t.Fatalf("nil-sink span path allocates %v per op, want 0", n)
	}
}

// A nil histogram's Observe no-ops without allocating.
func TestNilHistogramObserveAllocs(t *testing.T) {
	var h *obs.Histogram
	if n := testing.AllocsPerRun(100, func() {
		h.Observe(1.5)
	}); n != 0 {
		t.Fatalf("nil histogram Observe allocates %v per op, want 0", n)
	}
}

// Steady-state facility traffic reuses pooled requests and pooled events:
// after warm-up, a full grant/release cycle through a contended facility
// allocates nothing.
func TestFacilitySteadyStateAllocs(t *testing.T) {
	e := sim.New()
	f := sim.NewFacility(e, "cpu")
	const rounds = 2000
	done := 0
	for w := 0; w < 4; w++ {
		simtest.Spawn(e, "w", func(p *simtest.Proc) {
			for i := 0; i < rounds; i++ {
				simtest.Use(p, f, sim.Microsecond, 0)
			}
			done++
		})
	}
	allocs := testing.AllocsPerRun(1, func() {
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if done != 4 {
		t.Fatalf("workers finished: %d", done)
	}
	// The budget tolerates one-time warm-up growth (pool, free list, ring)
	// across ~8000 facility cycles; per-cycle allocation would blow it.
	if perCycle := allocs / (4 * rounds); perCycle > 0.01 {
		t.Fatalf("facility cycle allocates %.3f per op (%v total), want ~0", perCycle, allocs)
	}
}

// A Put that schedules a mailbox's consumer handler, and the handler's
// drain, allocate nothing once the rings have grown.
func TestConsumerAllocs(t *testing.T) {
	e := sim.New()
	mb := sim.NewMailbox[int](e, "mb")
	c := &drainHandler{mb: mb}
	mb.Consume(c)
	mb.Put(1)
	warm(e)
	if n := testing.AllocsPerRun(100, func() {
		mb.Put(1)
		mb.Put(2)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Put+drain allocates %v per op, want 0", n)
	}
	if c.got != 2*101+1 {
		t.Fatalf("consumer took %d messages", c.got)
	}
}
