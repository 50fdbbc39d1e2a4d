package rng

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
)

// emptyFree drops every released generator, so the next streams allocate.
func emptyFree() {
	free.Lock()
	clear(free.gens)
	free.gens = free.gens[:0]
	free.Unlock()
}

// A released stream's generator goes to the next stream, which draws
// exactly what direct seeding of its own seed draws, and the released
// stream refuses to draw, by name.
func TestReleasedStreamPanics(t *testing.T) {
	f := NewFactory(3)
	s := f.Stream("disk7")
	s.Float64()
	f.Release()
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "disk7") || !strings.Contains(msg, "released") {
			t.Fatalf("drawing from a released stream panicked with %v, want a message naming it", r)
		}
	}()
	s.Intn(10)
	t.Fatal("drawing from a released stream did not panic")
}

func TestRecycledStreamsMatchDirectSeeding(t *testing.T) {
	emptyFree()
	for _, root := range []int64{1, -7, math.MaxInt64} {
		f := NewFactory(root)
		for round := 0; round < 3; round++ {
			for i := 0; i < 5; i++ {
				s := f.Stream("s")
				seed := int64(splitmix64(uint64(root) ^ splitmix64(uint64(f.next))))
				if got, want := draws(s, 20), draws(direct(seed), 20); !slices.Equal(got, want) {
					t.Fatalf("root %d round %d stream %d: draws differ from direct seeding", root, round, i)
				}
			}
			f.Release()
		}
	}
}

// The free list keeps at most freeCap generators, whatever is released.
func TestFreeListStopsAtCap(t *testing.T) {
	emptyFree()
	t.Cleanup(emptyFree)
	f := NewFactory(9)
	for i := 0; i < freeCap+40; i++ {
		f.Stream("fill")
	}
	f.Release()
	free.Lock()
	n := len(free.gens)
	free.Unlock()
	if n != freeCap {
		t.Fatalf("free list holds %d generators after releasing %d, want its cap %d", n, freeCap+40, freeCap)
	}
}

// Factories on eight goroutines make, draw from and release streams at
// once, as a campaign's workers do; every stream, recycled or not, draws
// exactly what direct seeding draws. Run under -race.
func TestRecycleConcurrent(t *testing.T) {
	const workers = 8
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			root := int64(w % 3) // shared roots: shared memo entries
			for round := 0; round < 20; round++ {
				f := NewFactory(root)
				for i := 0; i < 1+(w+round)%6; i++ {
					s := f.Stream("s")
					seed := int64(splitmix64(uint64(root) ^ splitmix64(uint64(f.next))))
					if !slices.Equal(draws(s, 5), draws(direct(seed), 5)) {
						errs <- "a recycled stream's draws differ from direct seeding"
						return
					}
				}
				f.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// FuzzStreamRecycle interleaves making streams, drawing from them and
// releasing their factories, as the bytes direct, and holds every stream,
// recycled or not, to direct seeding of its derived seed.
func FuzzStreamRecycle(f *testing.F) {
	f.Add(int64(1), []byte{0x00, 0x01, 0x82, 0x03, 0x40, 0x00})
	f.Add(int64(-5), []byte{0x10, 0x10, 0xc0, 0x11, 0x25, 0xc1, 0x01})
	f.Add(int64(math.MinInt64), []byte{0x00, 0x00, 0x00, 0xc0, 0xc0, 0x00, 0x07, 0x80})
	f.Fuzz(func(t *testing.T, root int64, ops []byte) {
		type live struct {
			s    *Source
			want *Source // the same seed, seeded directly
		}
		factories := []*Factory{NewFactory(root), NewFactory(root ^ 0x5bd1e995)}
		var streams [2][]live
		for _, op := range ops {
			k := int(op>>4) & 1
			fa := factories[k]
			switch op >> 6 {
			case 0: // a new stream
				s := fa.Stream("s")
				seed := int64(splitmix64(uint64(fa.root) ^ splitmix64(uint64(fa.next))))
				streams[k] = append(streams[k], live{s, direct(seed)})
			case 1, 2: // draws from one of the factory's streams
				if len(streams[k]) == 0 {
					continue
				}
				l := streams[k][int(op&15)%len(streams[k])]
				if got, want := draws(l.s, 1+int(op&3)), draws(l.want, 1+int(op&3)); !slices.Equal(got, want) {
					t.Fatalf("root %d: a stream's draws differ from direct seeding", root)
				}
			case 3: // release the factory's streams
				fa.Release()
				streams[k] = streams[k][:0]
			}
		}
	})
}
