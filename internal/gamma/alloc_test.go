//go:build !race

package gamma

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/storage"
)

// TestNewImageAllocs guards the layout against copying tuples: a fragment
// is a row list over the relation, so laying out a 20,000-tuple relation
// on 32 processors allocates fewer bytes than the relation's tuples
// occupy, which one copy of every tuple alone would. Chain replicas
// share their primaries' row lists, the generation's TID index and their
// primaries' index entries, and add only their trees' page runs, so all
// of them together allocate less than one int32 a tuple; replicas that
// allocated their own row lists, TID index or entries would add at least
// that much.
func TestNewImageAllocs(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 20000, Seed: 3})
	n := int64(len(rel.Tuples))
	cfg := DefaultConfig()
	primaries := imageAllocBytes(t, rel, cfg)
	if limit := n * int64(unsafe.Sizeof(storage.Tuple{})); primaries >= limit {
		t.Errorf("NewImage of %d tuples allocated %d bytes, want fewer than the tuples' %d",
			n, primaries, limit)
	}
	cfg.ChainedReplicas = true
	replicas := imageAllocBytes(t, rel, cfg) - primaries
	t.Logf("%d tuples: primaries allocate %d bytes, chain replicas %d more", n, primaries, replicas)
	if limit := n * int64(unsafe.Sizeof(int32(0))); replicas >= limit {
		t.Errorf("chain replicas of %d tuples allocated %d bytes, want fewer than %d",
			n, replicas, limit)
	}
}

// imageAllocBytes reports the bytes a range NewImage of rel under cfg
// allocates, after a first layout has built the relation's orders. It
// measures three layouts with the collector off and takes the least,
// which drops what other goroutines of the test binary allocate
// meanwhile.
func imageAllocBytes(t *testing.T, rel *storage.Relation, cfg Config) int64 {
	t.Helper()
	pl := core.NewRangeForRelation(rel, storage.Unique1, 32)
	if _, err := NewImage(rel, pl, cfg); err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := int64(math.MaxInt64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := NewImage(rel, pl, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		least = min(least, int64(after.TotalAlloc-before.TotalAlloc))
	}
	return least
}
