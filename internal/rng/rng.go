// Package rng provides seeded, independent pseudo-random streams for the
// simulator. Every stochastic component of the model (disk rotational
// latency, workload generation, query arrival, attribute correlation noise)
// draws from its own stream so that changing one component's consumption
// pattern does not perturb the others — the classic "common random numbers"
// discipline used in discrete-event simulation studies such as the one this
// repository reproduces.
//
// All streams derive deterministically from a single experiment seed, so a
// run is fully reproducible from (seed, configuration).
package rng

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
)

// Source is a named, seeded random stream. It is a thin wrapper around
// math/rand.Rand with helpers for the distributions the simulator needs.
// A Source is not safe for concurrent use; the simulation kernel runs one
// process at a time, which is the only consumer.
type Source struct {
	name string
	rnd  *rand.Rand  // nil once the stream is released
	src  rand.Source // rnd's generator state
}

// Factory derives independent named streams from one root seed, and
// keeps them until Release.
type Factory struct {
	root    int64
	next    int64
	streams []*Source
}

// NewFactory returns a stream factory rooted at seed.
func NewFactory(seed int64) *Factory {
	return &Factory{root: seed}
}

// Stream returns a new independent stream. Streams are derived from the root
// seed and a per-factory counter mixed through SplitMix64, so distinct calls
// on one factory never share a seed and the derivation is stable across runs.
// Two factories with the same root derive the same seed sequence: the i-th
// stream of each draws exactly the same numbers, whatever their names. Give
// factories that must not correlate distinct roots (gamma's serveSeedTag).
func (f *Factory) Stream(name string) *Source {
	f.next++
	seed := splitmix64(uint64(f.root) ^ splitmix64(uint64(f.next)))
	s := &Source{name: name}
	s.rnd, s.src = seeded(int64(seed))
	f.streams = append(f.streams, s)
	return s
}

// Release returns the generator state of every stream the factory has made
// to the free list, where later streams reuse it, and makes drawing from
// those streams panic. Call it once nothing draws from them any more: a
// machine does when it closes.
func (f *Factory) Release() {
	free.Lock()
	for _, s := range f.streams {
		if len(free.gens) < freeCap {
			free.gens = append(free.gens, generator{s.rnd, s.src})
		}
		s.rnd, s.src = nil, nil
	}
	free.Unlock()
	clear(f.streams)
	f.streams = f.streams[:0]
}

// splitmix64 is the standard SplitMix64 finalizer, used only to decorrelate
// derived seeds; the streams themselves use math/rand's generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewSource returns a standalone stream seeded directly. Prefer Factory for
// experiment code; this exists for tests and tools.
func NewSource(name string, seed int64) *Source {
	s := &Source{name: name}
	s.rnd, s.src = seeded(seed)
	return s
}

// memoCap bounds the seeded-state memo. An entry holds one pristine
// math/rand state (about 5 KB), so a full memo holds about 5.5 MB. The
// paper-scale campaign at one experiment seed uses 83 distinct seeds. Once
// full, new seeds are seeded directly and not kept, so a seed sweep cannot
// grow it.
const memoCap = 1024

// memo maps a seed to the state rand.NewSource(seed) starts in. Nothing ever
// draws from a memoized state: every stream gets its own copy. Seeding runs
// math/rand's ~1,800-step initialisation, about ten times the cost of
// copying the state, and a campaign asks for the same few seeds thousands
// of times (each machine's disks and terminals, every job).
var memo = struct {
	sync.Mutex
	states map[int64]rand.Source
}{states: map[int64]rand.Source{}}

// freeCap bounds the free list of released generators. A generator is a
// math/rand state (5,376 bytes with its allocation size class) and its
// rand.Rand, so a full list holds about 0.7 MB. A closed job of the
// paper-scale campaign releases 96 streams (32 disks and 64 terminals),
// so the list holds what the next job needs; a release that finds it
// full leaves the rest to the garbage collector. The list stays live
// between jobs, which raises the heap the collector paces against: a
// larger bound saved no more allocation in the quick campaign and cost
// peak RSS.
const freeCap = 128

// generator is a stream's rand.Rand and the state it draws from.
type generator struct {
	rnd *rand.Rand
	src rand.Source
}

// free holds the generators of released streams, for seeded to reuse: a
// state is copied over, not allocated. fresh counts the generators seeded
// allocated because the list was empty.
var free = struct {
	sync.Mutex
	gens  []generator
	fresh int64
}{}

// seeded returns a generator in the state rand.NewSource(seed) starts in,
// so it draws exactly what rand.NewSource(seed) would: a released one
// overwritten with that state, or a new one. It is safe for concurrent
// use.
func seeded(seed int64) (*rand.Rand, rand.Source) {
	memo.Lock()
	pristine, ok := memo.states[seed]
	memo.Unlock()
	if !ok {
		pristine = rand.NewSource(seed)
		memo.Lock()
		if len(memo.states) < memoCap {
			memo.states[seed] = pristine
		}
		memo.Unlock()
	}
	// The source is a pointer to math/rand's unexported generator struct;
	// copy the struct it points to.
	state := reflect.ValueOf(pristine).Elem()
	free.Lock()
	if n := len(free.gens); n > 0 {
		g := free.gens[n-1]
		free.gens[n-1] = generator{}
		free.gens = free.gens[:n-1]
		free.Unlock()
		reflect.ValueOf(g.src).Elem().Set(state)
		*g.rnd = *rand.New(g.src) // clears what Read buffered
		return g.rnd, g.src
	}
	free.fresh++
	free.Unlock()
	fresh := reflect.New(state.Type())
	fresh.Elem().Set(state)
	src := fresh.Interface().(rand.Source)
	return rand.New(src), src
}

// r returns the stream's generator; drawing from a released stream panics.
func (s *Source) r() *rand.Rand {
	if s.rnd == nil {
		s.released()
	}
	return s.rnd
}

// released reports a draw from a released stream, by the stream's name.
func (s *Source) released() {
	panic(fmt.Sprintf("rng %s: draw from a released stream", s.name))
}

// Name reports the stream's name (used in traces and error messages).
func (s *Source) Name() string { return s.name }

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.r().Float64() }

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic(fmt.Sprintf("rng %s: Uniform bounds inverted: [%g, %g)", s.name, lo, hi))
	}
	return lo + (hi-lo)*s.r().Float64()
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (s *Source) Intn(n int) int { return s.r().Intn(n) }

// Exponential returns an exponentially distributed value with the given mean.
func (s *Source) Exponential(mean float64) float64 {
	return s.r().ExpFloat64() * mean
}

// Shuffle permutes the n elements addressed by swap in place.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.r().Shuffle(n, swap) }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.r().Float64() < p }
