package gridfile

import (
	"math/rand"
	"testing"
)

func BenchmarkInsert20k(b *testing.B) {
	perm := rand.New(rand.NewSource(1)).Perm(20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := New(25, []float64{1, 1}, [][2]int64{{0, 19999}, {0, 19999}})
		for j := 0; j < 20000; j++ {
			g.Insert([]int64{int64(perm[j]), int64(j)}, j)
		}
	}
}

func BenchmarkCellsCoveringColumn(b *testing.B) {
	g := New(25, []float64{1, 1}, [][2]int64{{0, 19999}, {0, 19999}})
	perm := rand.New(rand.NewSource(1)).Perm(20000)
	for j := 0; j < 20000; j++ {
		g.Insert([]int64{int64(perm[j]), int64(j)}, j)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CellsCovering([][2]int64{{10000, 10000}, {0, 19999}})
	}
}
