package sim

import "testing"

// BenchmarkEventThroughput measures raw kernel hand-off speed: one process
// holding repeatedly.
func BenchmarkEventThroughput(b *testing.B) {
	e := New()
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Hold(Microsecond)
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
	e := New()
	f := NewFacility(e, "cpu")
	per := b.N/16 + 1
	for w := 0; w < 16; w++ {
		e.Spawn("w", func(p *Proc) {
			for i := 0; i < per; i++ {
				f.UsePriority(p, Microsecond, 0)
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
	e := New()
	ping := NewMailbox[int](e, "ping")
	pong := NewMailbox[int](e, "pong")
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Put(i)
			pong.Get(p)
		}
	})
	e.Spawn("b", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Get(p)
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
// future-dated callback events (heap path), with no process switches.
func BenchmarkScheduleCallback(b *testing.B) {
	e := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Microsecond, fn)
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleHandler measures the closure-free handler path used by
// facilities and disks for their service-completion timers.
func BenchmarkScheduleHandler(b *testing.B) {
	e := New()
	h := &benchHandler{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleHandler(Microsecond, h)
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
	e := New()
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
	e := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := e.StartSpan()
		s.End(0, "cat", "name", 0, "")
	}
}
