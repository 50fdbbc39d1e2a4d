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
	rnd  *rand.Rand
}

// Factory derives independent named streams from one root seed.
type Factory struct {
	root int64
	next int64
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
	return &Source{name: name, rnd: rand.New(seeded(int64(seed)))}
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
	return &Source{name: name, rnd: rand.New(seeded(seed))}
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

// seeded returns a fresh generator in the state rand.NewSource(seed) starts
// in, so it draws exactly what rand.NewSource(seed) would. It is safe for
// concurrent use.
func seeded(seed int64) rand.Source {
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
	fresh := reflect.New(state.Type())
	fresh.Elem().Set(state)
	return fresh.Interface().(rand.Source)
}

// Name reports the stream's name (used in traces and error messages).
func (s *Source) Name() string { return s.name }

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.rnd.Float64() }

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic(fmt.Sprintf("rng %s: Uniform bounds inverted: [%g, %g)", s.name, lo, hi))
	}
	return lo + (hi-lo)*s.rnd.Float64()
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (s *Source) Intn(n int) int { return s.rnd.Intn(n) }

// Exponential returns an exponentially distributed value with the given mean.
func (s *Source) Exponential(mean float64) float64 {
	return s.rnd.ExpFloat64() * mean
}

// Shuffle permutes the n elements addressed by swap in place.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rnd.Shuffle(n, swap) }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.rnd.Float64() < p }
