package rebalance

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// nopIO is free page I/O for hot-path measurements (also used by the
// alloc guard, which is excluded under -race).
type nopIO struct{}

func (nopIO) Start(w hw.Waiter, write bool, node, page int) bool { return true }
func (nopIO) Step() bool                                         { return true }
func (nopIO) Err() error                                         { return nil }

// runCopy copies plan for p with the copier's step form, parking p
// through each wait, and returns the copy's first page error.
func runCopy(eng *sim.Engine, p *simtest.Proc, cp *Copier, plan Plan) error {
	for done := cp.Start(eng, p, plan); !done; done = cp.Step() {
		p.Park()
	}
	return cp.Err()
}

// BenchmarkMigrationStep measures the copier's per-page cost (throttle
// hold + IO dispatch + counter bookkeeping) with an instantaneous rate so
// the sim clock, not the budget, bounds throughput.
func BenchmarkMigrationStep(b *testing.B) {
	eng := sim.New()
	cp := &Copier{IO: nopIO{}, RatePagesPerSec: 1 << 30, PageBytes: 8192}
	moves := make([]TupleMove, 64)
	for i := range moves {
		moves[i] = TupleMove{Src: 0, Dst: 1, SrcPage: i, DstPage: i}
	}
	plan := BuildPlan(moves)
	pages := plan.Pages()
	simtest.Spawn(eng, "bench", func(p *simtest.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i += pages {
			if err := runCopy(eng, p, cp, plan); err != nil {
				b.Fatal(err)
			}
		}
	})
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBuildPlan measures planning cost for a 1000-tuple transition.
func BenchmarkBuildPlan(b *testing.B) {
	moves := make([]TupleMove, 1000)
	for i := range moves {
		moves[i] = TupleMove{Src: i % 8, Dst: 8 + i%8, SrcPage: i / 4, DstPage: i / 4}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := BuildPlan(moves); p.Tuples != 1000 {
			b.Fatal("bad plan")
		}
	}
}
