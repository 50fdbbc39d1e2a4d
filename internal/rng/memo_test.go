package rng

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// resetMemo empties the seeded-state memo, so the next request for any seed
// misses.
func resetMemo() {
	memo.Lock()
	memo.states = map[int64]rand.Source{}
	memo.Unlock()
}

func memoLen() int {
	memo.Lock()
	defer memo.Unlock()
	return len(memo.states)
}

// direct returns a stream seeded without the memo, the way every stream was
// seeded before it: the oracle the memoized streams are held to.
func direct(seed int64) *Source {
	return &Source{name: "direct", rnd: rand.New(rand.NewSource(seed))}
}

// draws runs a fixed script of every Source method n times and records what
// each returned.
func draws(s *Source, n int) []float64 {
	var out []float64
	perm := make([]int, 8)
	for i := 0; i < n; i++ {
		out = append(out, s.Float64(), s.Uniform(-3, 5), float64(s.Intn(1+i%97)), s.Exponential(2.5))
		if s.Bool(0.3) {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
		for j := range perm {
			perm[j] = j
		}
		s.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		for _, v := range perm {
			out = append(out, float64(v))
		}
	}
	return out
}

// memoSeeds covers seed 0, negative seeds, seeds math/rand folds onto one
// state (it reduces modulo 2^31-1), the int64 extremes, a repeated seed and
// the first streams of two factories.
func memoSeeds() []int64 {
	seeds := []int64{0, 1, -1, 42, 42, -42, math.MaxInt32, 2*math.MaxInt32 + 5,
		math.MinInt32, math.MaxInt64, math.MinInt64, 0}
	for _, root := range []int64{1, -7} {
		for i := int64(1); i <= 8; i++ {
			seeds = append(seeds, int64(splitmix64(uint64(root)^splitmix64(uint64(i)))))
		}
	}
	return seeds
}

// checkSeed holds the streams NewSource returns for seed, on a miss or a
// hit, to direct seeding, and checks that drawing from one copy leaves a
// later copy untouched.
func checkSeed(seed int64) error {
	want := draws(direct(seed), 40)
	first := NewSource("first", seed)
	if got := draws(first, 40); !slices.Equal(got, want) {
		return fmt.Errorf("seed %d: first stream's draws differ from direct seeding", seed)
	}
	// first has drawn; a later copy must still start from the seeded state.
	if got := draws(NewSource("later", seed), 40); !slices.Equal(got, want) {
		return fmt.Errorf("seed %d: a later stream's draws differ from direct seeding", seed)
	}
	return nil
}

// Derived seeds and their draws are part of every golden, digest and
// reference output: these first draws were taken before the memo existed.
func TestStreamDrawsPinned(t *testing.T) {
	for _, tc := range []struct {
		root int64
		n    int
		want uint64
	}{
		{0, 1, 0xe93ce4d17f5c315a}, {0, 2, 0x2624cee92aa00618}, {0, 3, 0xc572f9f1f4454a7},
		{1, 1, 0xa2bea5097b23b9ee}, {1, 2, 0x70ece9781bebb08f}, {1, 3, 0x273e2fdcfd12b902},
		{-7, 1, 0xc234c700fb4e2509}, {-7, 2, 0x679d5519550ac861}, {-7, 3, 0xbb72068eea83789b},
		{1 << 62, 1, 0x6ffaeb35715f1231}, {1 << 62, 2, 0xc406eb36e24cc005}, {1 << 62, 3, 0x8d7ee81eff6212e6},
	} {
		f := NewFactory(tc.root)
		var s *Source
		for i := 0; i < tc.n; i++ {
			s = f.Stream("s")
		}
		if got := s.rnd.Uint64(); got != tc.want {
			t.Errorf("root %d stream %d: first draw %#x, want %#x", tc.root, tc.n, got, tc.want)
		}
	}
	for _, tc := range []struct {
		seed int64
		want uint64
	}{
		{0, 0x78fc2ffac2fd9401}, {1, 0x4d65822107fcfd52}, {-1, 0xb29581df080302ac}, {math.MaxInt32, 0x78fc2ffac2fd9401},
	} {
		if got := NewSource("s", tc.seed).rnd.Uint64(); got != tc.want {
			t.Errorf("NewSource(%d): first draw %#x, want %#x", tc.seed, got, tc.want)
		}
	}
}

func TestMemoMatchesDirectSeeding(t *testing.T) {
	resetMemo()
	for pass := 0; pass < 2; pass++ { // the first pass misses, the second hits
		for _, seed := range memoSeeds() {
			if err := checkSeed(seed); err != nil {
				t.Fatalf("pass %d: %v", pass, err)
			}
		}
	}
	for _, root := range []int64{1, -7} {
		fa, fb := NewFactory(root), NewFactory(root)
		for i := int64(1); i <= 8; i++ {
			seed := int64(splitmix64(uint64(root) ^ splitmix64(uint64(i))))
			want := draws(direct(seed), 20)
			if got := draws(fa.Stream("a"), 20); !slices.Equal(got, want) {
				t.Fatalf("root %d stream %d: draws differ from direct seeding", root, i)
			}
			if got := draws(fb.Stream("b"), 20); !slices.Equal(got, want) {
				t.Fatalf("root %d stream %d: a second factory's draws differ from direct seeding", root, i)
			}
		}
	}
}

// Streams of the same seeds are requested from many goroutines at once, as
// the campaign's workers do; run under -race.
func TestMemoConcurrent(t *testing.T) {
	resetMemo()
	const workers = 8
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, seed := range memoSeeds() {
				if err := checkSeed(seed); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestMemoStopsGrowingAtCap(t *testing.T) {
	resetMemo()
	t.Cleanup(resetMemo)
	const base = 1_000_000
	for i := int64(0); i < memoCap+50; i++ {
		NewSource("fill", base+i)
	}
	if n := memoLen(); n != memoCap {
		t.Fatalf("memo holds %d states after %d seeds, want its cap %d", n, memoCap+50, memoCap)
	}
	// Seeds past the cap and seeds in the memo both still draw correctly,
	// and asking again grows nothing.
	for _, seed := range []int64{base, base + memoCap - 1, base + memoCap, base + memoCap + 49, -3} {
		if err := checkSeed(seed); err != nil {
			t.Fatal(err)
		}
	}
	if n := memoLen(); n != memoCap {
		t.Fatalf("memo grew past its cap to %d", n)
	}
}

// FuzzStreamMemo holds a factory's stream at an arbitrary root and counter,
// on a memo miss and on a hit, to direct seeding of the derived seed.
func FuzzStreamMemo(f *testing.F) {
	f.Add(int64(0), uint32(0))
	f.Add(int64(1), uint32(31))
	f.Add(int64(-1), uint32(1<<32-1))
	f.Add(int64(math.MinInt64), uint32(7))
	f.Fuzz(func(t *testing.T, root int64, counter uint32) {
		seed := int64(splitmix64(uint64(root) ^ splitmix64(uint64(counter)+1)))
		want := draws(direct(seed), 10)
		first := (&Factory{root: root, next: int64(counter)}).Stream("first")
		if got := draws(first, 10); !slices.Equal(got, want) {
			t.Fatalf("root %d counter %d: draws differ from direct seeding", root, counter)
		}
		later := (&Factory{root: root, next: int64(counter)}).Stream("later")
		if got := draws(later, 10); !slices.Equal(got, want) {
			t.Fatalf("root %d counter %d: a later stream's draws differ from direct seeding", root, counter)
		}
	})
}

var sinkRand *rand.Rand
var sinkSource *Source

// BenchmarkStream compares seeding a generator with copying a memoized
// state, the cost every Stream paid before and pays now on a memo hit.
func BenchmarkStream(b *testing.B) {
	b.Run("seed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkRand = rand.New(rand.NewSource(42))
		}
	})
	b.Run("memo-hit", func(b *testing.B) {
		NewSource("bench", 42)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkSource = NewSource("bench", 42)
		}
	})
}
