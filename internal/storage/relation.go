// Package storage provides the simulated database's storage layer: the
// Wisconsin benchmark relation the paper's workload is built on [BDC83],
// per-node fragments with a page layout on the simulated disks, clustered
// and non-clustered B+-tree indexes, and BERD's auxiliary index-only
// fragments. Access methods return the exact page-access sequences the
// execution layer replays against the simulated hardware.
package storage

import (
	"fmt"

	"repro/internal/rng"
)

// Attribute indices of the thirteen-attribute Wisconsin relation. The
// paper's workload uses Unique1 as attribute A (uniformly distributed,
// non-clustered index) and Unique2 as attribute B (clustered index).
const (
	Unique1 = iota // "A": random permutation of 0..n-1
	Unique2        // "B": sequential 0..n-1 (the clustered attribute)
	Two
	Four
	Ten
	Twenty
	OnePercent
	TenPercent
	TwentyPercent
	FiftyPercent
	Unique3
	EvenOnePercent
	OddOnePercent
	NumAttrs
)

// AttrName returns the conventional Wisconsin attribute name.
func AttrName(attr int) string {
	names := [...]string{"unique1", "unique2", "two", "four", "ten", "twenty",
		"onePercent", "tenPercent", "twentyPercent", "fiftyPercent",
		"unique3", "evenOnePercent", "oddOnePercent"}
	if attr < 0 || attr >= len(names) {
		return fmt.Sprintf("attr%d", attr)
	}
	return names[attr]
}

// Tuple is one row. TID is the global tuple identifier (its position in the
// base relation); Attrs holds the thirteen integer attributes. String
// attributes of the original benchmark affect only the tuple's byte size,
// which Table 2 fixes at 208 bytes, so they carry no modeled content.
type Tuple struct {
	TID   int64
	Attrs [NumAttrs]int64
}

// Relation is the base table before declustering. Tuple i has TID i,
// and the tuples do not change once the relation is declustered: every
// fragment reads them in place, and its TID index is a slice by TID.
type Relation struct {
	Name   string
	Tuples []Tuple
}

// Cardinality reports the number of tuples.
func (r *Relation) Cardinality() int { return len(r.Tuples) }

// AttrBounds reports the min and max value of an attribute (0,−1 if empty).
func (r *Relation) AttrBounds(attr int) (lo, hi int64) {
	if len(r.Tuples) == 0 {
		return 0, -1
	}
	lo, hi = r.Tuples[0].Attrs[attr], r.Tuples[0].Attrs[attr]
	for _, t := range r.Tuples {
		v := t.Attrs[attr]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// GenSpec controls Wisconsin relation generation.
type GenSpec struct {
	Name        string
	Cardinality int
	// CorrelationWindow controls the correlation between unique1 (A) and
	// unique2 (B), the knob Section 4 of the paper studies:
	//   0 (or >= Cardinality): uncorrelated — unique1 is a full random
	//     permutation (the paper's "low correlation");
	//   1: unique1 == unique2 — the worst-case identical attributes of §4;
	//   w > 1: unique1 is a permutation displaced at most w-1 positions
	//     from unique2 (block shuffle), the paper's "high correlation".
	CorrelationWindow int
	Seed              int64
}

// GenerateWisconsin builds the relation. Tuples are produced in unique2
// order (0..n-1), which is also the clustered storage order.
func GenerateWisconsin(spec GenSpec) *Relation {
	n := spec.Cardinality
	if n <= 0 {
		panic(fmt.Sprintf("storage: cardinality must be positive, got %d", n))
	}
	name := spec.Name
	if name == "" {
		name = "wisconsin"
	}
	src := rng.NewFactory(spec.Seed).Stream("wisconsin")
	unique1 := correlatedPermutation(n, spec.CorrelationWindow, src)

	r := &Relation{Name: name, Tuples: make([]Tuple, n)}
	for i := 0; i < n; i++ {
		u1 := int64(unique1[i])
		t := Tuple{TID: int64(i)}
		t.Attrs[Unique1] = u1
		t.Attrs[Unique2] = int64(i)
		t.Attrs[Two] = u1 % 2
		t.Attrs[Four] = u1 % 4
		t.Attrs[Ten] = u1 % 10
		t.Attrs[Twenty] = u1 % 20
		t.Attrs[OnePercent] = u1 % 100
		t.Attrs[TenPercent] = u1 % 10
		t.Attrs[TwentyPercent] = u1 % 5
		t.Attrs[FiftyPercent] = u1 % 2
		t.Attrs[Unique3] = u1
		t.Attrs[EvenOnePercent] = (u1 % 100) * 2
		t.Attrs[OddOnePercent] = (u1%100)*2 + 1
		r.Tuples[i] = t
	}
	return r
}

// correlatedPermutation returns a permutation of 0..n-1 whose element i is
// displaced at most window-1 positions from i. window <= 0 or >= n yields a
// full shuffle; window == 1 yields the identity.
func correlatedPermutation(n, window int, src *rng.Source) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	if window == 1 {
		return p
	}
	if window <= 0 || window >= n {
		src.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
		return p
	}
	for start := 0; start < n; start += window {
		end := start + window
		if end > n {
			end = n
		}
		block := p[start:end]
		src.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	}
	return p
}
