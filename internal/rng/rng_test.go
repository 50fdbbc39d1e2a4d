package rng

import (
	"math"
	"testing"
)

func TestFactoryDeterministic(t *testing.T) {
	a := NewFactory(42).Stream("disk")
	b := NewFactory(42).Stream("disk")
	for i := 0; i < 1000; i++ {
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("draw %d: streams from identical seeds diverged: %g vs %g", i, x, y)
		}
	}
}

func TestFactoryStreamsIndependent(t *testing.T) {
	f := NewFactory(42)
	a := f.Stream("disk")
	b := f.Stream("net")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams look correlated: %d/1000 identical draws", same)
	}
}

func TestFactoryDifferentSeedsDiffer(t *testing.T) {
	a := NewFactory(1).Stream("s")
	b := NewFactory(2).Stream("s")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestUniformBounds(t *testing.T) {
	s := NewSource("t", 7)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(3, 9)
		if v < 3 || v >= 9 {
			t.Fatalf("Uniform(3,9) produced %g", v)
		}
	}
}

func TestUniformMean(t *testing.T) {
	s := NewSource("t", 7)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Uniform(0, 16.68)
	}
	mean := sum / n
	if math.Abs(mean-8.34) > 0.1 {
		t.Fatalf("Uniform(0,16.68) mean = %g, want ~8.34", mean)
	}
}

func TestExponentialMean(t *testing.T) {
	s := NewSource("t", 13)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Exponential(5.0)
	}
	mean := sum / n
	if math.Abs(mean-5.0) > 0.1 {
		t.Fatalf("Exponential(5) mean = %g", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	s := NewSource("t", 17)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate = %g", frac)
	}
}

func TestUniformPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uniform with inverted bounds did not panic")
		}
	}()
	NewSource("t", 1).Uniform(5, 3)
}

func TestStreamName(t *testing.T) {
	if got := NewFactory(1).Stream("disk").Name(); got != "disk" {
		t.Fatalf("Name() = %q", got)
	}
}
