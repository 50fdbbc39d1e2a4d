package btree

import (
	"math/rand"
	"testing"
)

func benchTree(n int) *Tree {
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: int64(i), Val: int64(i)}
	}
	return bulkTree(400, 400, entries)
}

func BenchmarkBulkLoad100k(b *testing.B) {
	entries := make([]Entry, 100000)
	for i := range entries {
		entries[i] = Entry{Key: int64(i), Val: int64(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bulkTree(400, 400, entries)
	}
}

// count is a Walk visitor that only counts entries.
func count(n *int) func([]Entry) { return func(run []Entry) { *n += len(run) } }

func BenchmarkSearch(b *testing.B) {
	tr := benchTree(100000)
	r := rand.New(rand.NewSource(1))
	var pages []int
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := int64(r.Intn(100000))
		pages = tr.Walk(k, k, pages[:0], count(&n))
	}
}

func BenchmarkRange300(b *testing.B) {
	tr := benchTree(100000)
	r := rand.New(rand.NewSource(1))
	var pages []int
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64(r.Intn(99000))
		pages = tr.Walk(lo, lo+299, pages[:0], count(&n))
	}
}
