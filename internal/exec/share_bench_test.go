package exec

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/storage"
)

// BenchmarkSharedScanBatch measures one full shared-scan cycle — 8
// concurrent identical selections enqueued, window-flushed, executed as one
// deduplicated disk pass, and demultiplexed back to their coordinators.
func BenchmarkSharedScanBatch(b *testing.B) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	r := newRig(b, core.NewRangeForRelation(rel, storage.Unique1, 2))
	r.host.EnableSharing(2 * sim.Millisecond)
	query := selectOn(rel.Name, core.Predicate{Attr: storage.Unique2, Lo: 40, Hi: 79})

	simtest.Spawn(r.eng, "bench", func(p *simtest.Proc) {
		done := sim.NewMailbox[int](r.eng, "bench.done")
		for i := 0; i < b.N; i++ {
			for k := 0; k < 8; k++ {
				simtest.Spawn(r.eng, "q", func(qp *simtest.Proc) {
					submit(qp, r.host, query)
					done.Put(1)
				})
			}
			for k := 0; k < 8; k++ {
				simtest.Get(p, done)
			}
		}
		r.eng.Stop()
	})
	b.ReportAllocs()
	b.ResetTimer()
	horizon := sim.Duration(b.N)*sim.Second + 60*sim.Second
	if err := r.eng.RunUntil(sim.Time(horizon)); err != nil {
		b.Fatal(err)
	}
}
