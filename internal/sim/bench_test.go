package sim_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// BenchmarkEventThroughput measures raw kernel hand-off speed: one process
// holding repeatedly.
func BenchmarkEventThroughput(b *testing.B) {
	e := sim.New()
	simtest.Spawn(e, "p", func(p *simtest.Proc) {
		for i := 0; i < b.N; i++ {
			p.Hold(sim.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFacilityContention measures a contended FCFS facility with 16
// processes.
func BenchmarkFacilityContention(b *testing.B) {
	e := sim.New()
	f := sim.NewFacility(e, "cpu")
	per := b.N/16 + 1
	for w := 0; w < 16; w++ {
		simtest.Spawn(e, "w", func(p *simtest.Proc) {
			for i := 0; i < per; i++ {
				simtest.Use(p, f, sim.Microsecond, 0)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMailboxPingPong measures two processes exchanging messages.
func BenchmarkMailboxPingPong(b *testing.B) {
	e := sim.New()
	ping := sim.NewMailbox[int](e, "ping")
	pong := sim.NewMailbox[int](e, "pong")
	simtest.Spawn(e, "a", func(p *simtest.Proc) {
		for i := 0; i < b.N; i++ {
			ping.Put(i)
			simtest.Get(p, pong)
		}
	})
	simtest.Spawn(e, "b", func(p *simtest.Proc) {
		for i := 0; i < b.N; i++ {
			simtest.Get(p, ping)
			pong.Put(i)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScheduleCallback measures the pooled schedule/dispatch cycle for
// future-dated callback events (heap path).
func BenchmarkScheduleCallback(b *testing.B) {
	e := sim.New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(sim.Microsecond, fn)
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleHandler measures the closure-free handler path used by
// facilities and disks for their service-completion timers.
func BenchmarkScheduleHandler(b *testing.B) {
	e := sim.New()
	h := &benchHandler{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleHandler(sim.Microsecond, h)
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

type benchHandler struct{ n int }

func (h *benchHandler) HandleEvent() { h.n++ }

// BenchmarkReadyRingWake measures the zero-delay scheduling shape every
// Wake takes: ring push, no heap sift.
func BenchmarkReadyRingWake(b *testing.B) {
	e := sim.New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(0, fn)
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpanDisabled measures the tracing-off span path, which must be a
// single branch.
func BenchmarkSpanDisabled(b *testing.B) {
	e := sim.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := e.StartSpan()
		s.End(0, "cat", "name", 0, "")
	}
}
