//go:build !race

package core

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/storage"
)

// TestMAGICHomeOfAllocs guards the per-tuple placement lookup every MAGIC
// layout runs once per tuple: locating a tuple's grid cell must not build
// a point or a coordinate slice.
func TestMAGICHomeOfAllocs(t *testing.T) {
	rel, m := buildTestMAGIC(t, 2000, 0, 8, nil)
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		m.HomeOf(rel.Tuples[i%len(rel.Tuples)])
		i++
	}); n != 0 {
		t.Fatalf("HomeOf allocates %v per tuple, want 0", n)
	}
}

// TestBuildMAGICAllocs bounds the bytes one 20,000-tuple MAGIC build
// allocates: the grid file stores its points flat and grows its directory
// in place, so a build must not allocate a slice per point or a new
// directory per split again. It measures three builds with the collector
// off and takes the least, which drops what other goroutines of the test
// binary allocate meanwhile.
func TestBuildMAGICAllocs(t *testing.T) {
	const n = 20000
	rel := testRelation(t, n, 0)
	pp := PlanParams{CPms: 1.7, CSms: 0.003, Processors: 32, Cardinality: n}
	build := func() {
		if _, err := BuildMAGIC(rel, []int{storage.Unique1, storage.Unique2}, magicWorkload(), pp, nil); err != nil {
			t.Fatal(err)
		}
	}
	build()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := int64(math.MaxInt64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		least = min(least, int64(after.TotalAlloc-before.TotalAlloc))
	}
	t.Logf("BuildMAGIC of %d tuples allocates %d bytes", n, least)
	if limit := int64(9 << 20); least >= limit {
		t.Errorf("BuildMAGIC of %d tuples allocated %d bytes, want fewer than %d", n, least, limit)
	}
}

// TestMAGICRouteAllocs guards MAGIC's per-query routing: a constrained
// route walks the covered cells directly and allocates only its
// Participants slice.
func TestMAGICRouteAllocs(t *testing.T) {
	_, m := buildTestMAGIC(t, 2000, 0, 8, nil)
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		lo := int64(i % 1900)
		m.RouteConjunct([]Predicate{{Attr: storage.Unique2, Lo: lo, Hi: lo + 9}})
		i++
	}); n != 1 {
		t.Fatalf("a constrained route allocates %v times, want 1 (its Participants)", n)
	}
}
