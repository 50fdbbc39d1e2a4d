//go:build !race

// Allocation-regression guard for a memo hit, which every disk and terminal
// stream of every job takes. Excluded under -race because race
// instrumentation itself allocates.

package rng

import "testing"

// A memo hit allocates the copied generator state, its rand.Rand and the
// Source, and nothing else; a stream that reuses a released generator
// allocates only its Source.
func TestStreamMemoHitAllocs(t *testing.T) {
	f := NewFactory(42)
	f.Stream("disk") // the miss: memoizes the seed
	f.Release()
	if n := testing.AllocsPerRun(100, func() {
		f.next = 0
		f.Stream("disk")
		f.Release()
	}); n > 1 {
		t.Errorf("a Stream on a released generator allocates %v per op, want at most 1", n)
	}
	emptyFree() // NewSource never releases: a memo hit copies into new state
	if n := testing.AllocsPerRun(100, func() {
		NewSource("disk", 42)
	}); n > 3 {
		t.Errorf("memo-hit NewSource allocates %v per op, want at most 3", n)
	}
}
