//go:build !race

package core

import "testing"

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
