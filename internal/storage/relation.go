// Package storage provides the simulated database's storage layer: the
// Wisconsin benchmark relation the paper's workload is built on [BDC83],
// per-node fragments with a page layout on the simulated disks, clustered
// and non-clustered B+-tree indexes, and BERD's auxiliary index-only
// fragments. Access methods return the exact page-access sequences the
// execution layer replays against the simulated hardware.
package storage

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/btree"
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
// The relation keeps every row order asked of it (Order, OrderThen), so
// each is sorted once however many placements and layouts read it; a
// copy of a Relation shares the orders already built.
type Relation struct {
	Name   string
	Tuples []Tuple

	orders map[orderKey]*rowOrder // guarded by ordersMu
}

// orderKey names an order: by attr, then by then, then by row.
type orderKey struct{ attr, then int }

// rowOrder is one kept order, built by its first caller.
type rowOrder struct {
	once     sync.Once
	rows     []int32
	identity bool // rows[i] == i: the tuples already stand in this order
}

// ordersMu guards every relation's orders map. It is held only to find
// or add an entry, never while an order is sorted, and it lives outside
// Relation so that a Relation can still be copied.
var ordersMu sync.Mutex

// Cardinality reports the number of tuples.
func (r *Relation) Cardinality() int { return len(r.Tuples) }

// AttrBounds reports the min and max value of an attribute (0,−1 if
// empty): the values of the first and last row of Order(attr).
func (r *Relation) AttrBounds(attr int) (lo, hi int64) {
	if len(r.Tuples) == 0 {
		return 0, -1
	}
	order := r.Order(attr)
	return r.Tuples[order[0]].Attrs[attr], r.Tuples[order[len(order)-1]].Attrs[attr]
}

// Order returns the relation's row numbers sorted by attr, equal values
// in row order. It is OrderThen(attr, attr).
func (r *Relation) Order(attr int) []int32 { return r.OrderThen(attr, attr) }

// OrderThen returns the relation's row numbers sorted by attr, equal
// values by then, and equal pairs in row order. The order is sorted on
// first use, once however many goroutines ask at the same time, and kept
// with the relation, which therefore must not change afterwards. Callers
// must not modify it.
func (r *Relation) OrderThen(attr, then int) []int32 { return r.order(attr, then).rows }

func (r *Relation) order(attr, then int) *rowOrder {
	key := orderKey{attr, then}
	ordersMu.Lock()
	if r.orders == nil {
		r.orders = make(map[orderKey]*rowOrder)
	}
	o := r.orders[key]
	if o == nil {
		o = new(rowOrder)
		r.orders[key] = o
	}
	ordersMu.Unlock()
	o.once.Do(func() { o.rows, o.identity = r.sortOrder(attr, then) })
	return o
}

// sortOrder builds OrderThen(attr, then): a stable sort by attr of
// then's order. When then's order is row order, that is attr's own order,
// which it shares.
func (r *Relation) sortOrder(attr, then int) (rows []int32, identity bool) {
	if len(r.Tuples) > math.MaxInt32 {
		panic(fmt.Sprintf("storage: relation %s has %d tuples, more than a row order holds", r.Name, len(r.Tuples)))
	}
	rows = make([]int32, len(r.Tuples))
	for i := range rows {
		rows[i] = int32(i)
	}
	if then != attr {
		base := r.order(then, then)
		if base.identity {
			o := r.order(attr, attr)
			return o.rows, o.identity
		}
		copy(rows, base.rows)
	}
	sorted := true
	for i := 1; i < len(rows) && sorted; i++ {
		sorted = r.Tuples[rows[i-1]].Attrs[attr] <= r.Tuples[rows[i]].Attrs[attr]
	}
	if !sorted {
		entries := make([]btree.Entry, len(rows))
		for i, row := range rows {
			entries[i] = btree.Entry{Key: r.Tuples[row].Attrs[attr], Val: int64(row)}
		}
		btree.SortEntries(entries)
		for i, e := range entries {
			rows[i] = int32(e.Val)
		}
	}
	identity = true
	for i, row := range rows {
		identity = identity && row == int32(i)
	}
	return rows, identity
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
		t := &r.Tuples[i]
		t.TID = int64(i)
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
