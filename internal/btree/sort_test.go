package btree

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// checkSortEntries sorts a copy of keys, each entry's value its input
// index, with SortEntries and with the stable comparison sort it replaces,
// and fails unless both give the same entries in the same order.
func checkSortEntries(t *testing.T, name string, keys []int64) {
	t.Helper()
	got := make([]Entry, len(keys))
	for i, k := range keys {
		got[i] = Entry{Key: k, Val: int64(i)}
	}
	want := slices.Clone(got)
	SortEntries(got)
	slices.SortStableFunc(want, func(a, b Entry) int { return cmp.Compare(a.Key, b.Key) })
	if !slices.Equal(got, want) {
		t.Fatalf("%s: SortEntries order differs from the stable reference:\n got %v\nwant %v", name, got, want)
	}
}

func TestSortEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	runs := make([]int64, 0, 1200)
	for i := 0; i < 1200; i++ {
		runs = append(runs, int64(i/300)) // four runs of 300 equal keys
	}
	rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	wisconsin := make([]int64, 3125)
	for i := range wisconsin {
		wisconsin[i] = rng.Int63n(100000)
	}
	equal := make([]int64, 500)
	for i := range equal {
		equal[i] = 42
	}
	wide := make([]int64, 2000)
	for i := range wide {
		wide[i] = int64(rng.Uint64())
	}
	cases := []struct {
		name string
		keys []int64
	}{
		{"empty", nil},
		{"one", []int64{7}},
		{"two ascending", []int64{1, 2}},
		{"two descending", []int64{2, 1}},
		{"two equal", []int64{4, 4}},
		{"all equal", equal},
		{"duplicate runs", runs},
		{"negative", []int64{-1, 3, -300, 0, -1, 255, -256, 256, -1 << 40, 1 << 40}},
		{"extremes", []int64{math.MaxInt64, 0, math.MinInt64, -1, math.MaxInt64, math.MinInt64, 1}},
		{"top byte only", []int64{5 << 56, -3 << 56, 5 << 56, 0, -3 << 56}},
		{"wisconsin", wisconsin},
		{"wide", wide},
	}
	for _, c := range cases {
		checkSortEntries(t, c.name, c.keys)
	}
}

// TestSortEntriesConcurrent sorts inputs of different sizes on several
// goroutines at once, as the placements built on the worker pool do when
// they first ask relations for orders, so that under -race no two sorts
// share state.
func TestSortEntriesConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < 20; round++ {
				entries := make([]Entry, 100+rng.Intn(1000*(g+1)))
				for i := range entries {
					entries[i] = Entry{Key: rng.Int63n(5000) - 2500, Val: int64(i)}
				}
				want := slices.Clone(entries)
				slices.SortStableFunc(want, func(a, b Entry) int { return cmp.Compare(a.Key, b.Key) })
				SortEntries(entries)
				if !slices.Equal(entries, want) {
					t.Errorf("goroutine %d round %d: order differs from the stable reference", g, round)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzSortEntries decodes keys from the fuzz input, two bytes each: the
// first picks the key's form, the second its value. Small signed values
// shifted onto any of the eight bytes make duplicates, negative keys and
// bytes that only some keys vary in; the last forms give math.MinInt64,
// math.MaxInt64 and keys that vary in every byte. SortEntries must give
// exactly the order of a stable comparison sort.
func FuzzSortEntries(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1})
	f.Add([]byte{0, 2, 0, 1, 0, 2, 0, 1})
	f.Add([]byte{7, 255, 0, 0, 240, 1, 240, 0, 250, 9, 3, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxKeys = 1000
		keys := make([]int64, 0, min(len(data)/2, maxKeys))
		for ; len(data) >= 2 && len(keys) < maxKeys; data = data[2:] {
			form, v := data[0], data[1]
			var k int64
			switch {
			case form >= 248:
				k = int64(v) * 0x0101010101010101 // every byte varies
			case form >= 240:
				k = math.MinInt64
				if v%2 == 1 {
					k = math.MaxInt64
				}
			default:
				k = int64(int8(v)) << (8 * (form % 8))
			}
			keys = append(keys, k)
		}
		checkSortEntries(t, "fuzz", keys)
	})
}
