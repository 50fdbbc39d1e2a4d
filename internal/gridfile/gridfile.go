// Package gridfile implements the insertion phase of the grid file
// [NHS84] as MAGIC uses it: tuples are inserted one at a time into a
// K-dimensional directory; when a cell (fragment) exceeds its capacity FC,
// one whole slice of a dimension is split in two, with the dimension chosen
// by a caller-supplied splitting-frequency policy (MAGIC's Fraction_Splits,
// Equation 4 of the paper). The resulting directory — linear scales plus a
// K-dimensional array of cells — is exactly the structure MAGIC stores in
// the database catalog and the query optimizer searches to localize
// selections.
package gridfile

import (
	"fmt"
	"slices"
	"sort"
)

// Grid is a K-dimensional grid directory under construction or completed.
type Grid struct {
	k        int
	capacity int
	weights  []float64 // relative splitting frequency per dimension
	bounds   [][2]int64
	scales   [][]int64 // ascending interior split points per dimension
	dims     []int     // number of intervals per dimension (= len(scales[d])+1)
	cells    [][]int   // flat row-major cell -> tuple ids
	points   []int64   // point of id i at [i*k, (i+1)*k) (ids dense from 0)
	coord    []int     // split's scratch: the overflowing cell's coordinates
	right    []int     // insertBoundary's scratch: a split cell's right ids
	splits   []int     // splits performed per dimension
	total    int       // total splits
	inserted int
	overflow int // cells left over capacity because no dimension could split
	maxCells int // directory-size cap; 0 = unlimited
}

// New creates an empty grid. capacity is the fragment cardinality FC;
// weights are the per-dimension splitting frequencies (any positive scale,
// only ratios matter — MAGIC passes Fraction_Splits); bounds give each
// dimension's value domain [lo, hi] inclusive, used to pick split midpoints.
func New(capacity int, weights []float64, bounds [][2]int64) *Grid {
	k := len(weights)
	if k == 0 {
		panic("gridfile: need at least one dimension")
	}
	if len(bounds) != k {
		panic(fmt.Sprintf("gridfile: %d weights but %d bounds", k, len(bounds)))
	}
	if capacity < 1 {
		panic(fmt.Sprintf("gridfile: capacity %d must be >= 1", capacity))
	}
	sum := 0.0
	for d, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("gridfile: negative weight %g for dimension %d", w, d))
		}
		sum += w
		if bounds[d][0] > bounds[d][1] {
			panic(fmt.Sprintf("gridfile: inverted bounds for dimension %d", d))
		}
	}
	if sum == 0 {
		panic("gridfile: all splitting weights are zero")
	}
	g := &Grid{
		k:        k,
		capacity: capacity,
		weights:  append([]float64(nil), weights...),
		bounds:   append([][2]int64(nil), bounds...),
		scales:   make([][]int64, k),
		dims:     make([]int, k),
		cells:    make([][]int, 1),
		coord:    make([]int, k),
		splits:   make([]int, k),
	}
	for d := range g.dims {
		g.dims[d] = 1
	}
	return g
}

// K reports the number of dimensions.
func (g *Grid) K() int { return g.k }

// Dims reports the number of intervals per dimension (the paper's Ni).
func (g *Grid) Dims() []int { return append([]int(nil), g.dims...) }

// NumCells reports the total number of directory entries.
func (g *Grid) NumCells() int { return len(g.cells) }

// OverflowCells reports how many splits were abandoned because no dimension
// had a splittable interval (heavily duplicated values) or the directory-size
// cap was reached.
func (g *Grid) OverflowCells() int { return g.overflow }

// SetMaxCells caps the directory size: once a split would push NumCells past
// n, cells are allowed to exceed the fragment capacity instead (an overflow
// fragment). Without a cap, highly correlated insertions — all points on a
// diagonal — would force O((n/FC)^2) directory entries, since splitting a
// whole slice cannot separate co-located diagonal points; real grid files
// bound this with shared buckets, MAGIC by accepting oversized fragments.
// n <= 0 removes the cap.
func (g *Grid) SetMaxCells(n int) { g.maxCells = n }

// Capacity reports the fragment capacity FC.
func (g *Grid) Capacity() int { return g.capacity }

// Bounds returns the inclusive value domain of a dimension.
func (g *Grid) Bounds(dim int) (lo, hi int64) { return g.bounds[dim][0], g.bounds[dim][1] }

// Grow reserves room for n more points, so that inserting them does not
// reallocate the point store.
func (g *Grid) Grow(n int) { g.points = slices.Grow(g.points, n*g.k) }

// Insert adds a point with a dense id (0,1,2,... in insertion order),
// splitting slices as cells overflow.
func (g *Grid) Insert(point []int64, id int) {
	if len(point) != g.k {
		panic(fmt.Sprintf("gridfile: point has %d dims, grid has %d", len(point), g.k))
	}
	if id != g.inserted {
		panic(fmt.Sprintf("gridfile: ids must be dense; got %d, want %d", id, g.inserted))
	}
	for d := range point {
		if point[d] < g.bounds[d][0] || point[d] > g.bounds[d][1] {
			panic(fmt.Sprintf("gridfile: point[%d]=%d outside bounds [%d,%d]",
				d, point[d], g.bounds[d][0], g.bounds[d][1]))
		}
	}
	g.points = append(g.points, point...)
	ci := g.cellOf(point)
	g.cells[ci] = append(g.cells[ci], id)
	g.inserted++
	for len(g.cells[ci]) > g.capacity {
		if !g.split(ci) {
			g.overflow++
			break
		}
		// The split may have moved the overflowing tuples elsewhere; find
		// the cell our point now lives in and re-check.
		ci = g.cellOf(point)
	}
}

// CellOf returns the flat cell index of the point whose d-th coordinate is
// values[attrs[d]], for one attrs entry per dimension: a tuple's cell, read
// straight from its attribute values without building the point, so it
// allocates nothing.
func (g *Grid) CellOf(values []int64, attrs []int) int {
	idx := 0
	for d, a := range attrs {
		idx = idx*g.dims[d] + g.interval(d, values[a])
	}
	return idx
}

// cellOf returns the flat cell index of a point.
func (g *Grid) cellOf(point []int64) int {
	idx := 0
	for d, v := range point {
		idx = idx*g.dims[d] + g.interval(d, v)
	}
	return idx
}

// point returns the coordinates of the point with the given id.
func (g *Grid) point(id int) []int64 { return g.points[id*g.k : (id+1)*g.k] }

// interval returns the index of the interval of dimension d containing v:
// intervals are [lo, s0), [s0, s1), ..., [sLast, hi].
func (g *Grid) interval(d int, v int64) int {
	s := g.scales[d]
	return sort.Search(len(s), func(i int) bool { return s[i] > v })
}

// IntervalRange returns the interval index range [from, to] of dimension d
// overlapping the value range [lo, hi].
func (g *Grid) IntervalRange(d int, lo, hi int64) (from, to int) {
	return g.interval(d, lo), g.interval(d, hi)
}

// decode writes the coordinates of a flat cell index into coord.
func (g *Grid) decode(flat int, coord []int) {
	for d := g.k - 1; d >= 0; d-- {
		coord[d] = flat % g.dims[d]
		flat /= g.dims[d]
	}
}

// Cell returns the tuple ids in the flat cell (caller must not mutate).
func (g *Grid) Cell(flat int) []int { return g.cells[flat] }

// CellCount returns the number of tuples in the flat cell.
func (g *Grid) CellCount(flat int) int { return len(g.cells[flat]) }

// split splits the slice containing the overflowing flat cell. It picks the
// dimension with the largest splitting-frequency deficit whose interval (at
// this cell) is still divisible, splits that interval at its value midpoint
// across the whole dimension, and redistributes affected cells. Returns
// false if no dimension can split.
func (g *Grid) split(flat int) bool {
	coord := g.coord
	g.decode(flat, coord)
	d := -1
	var bestScore float64
	sumW := 0.0
	for _, w := range g.weights {
		sumW += w
	}
	for cand := 0; cand < g.k; cand++ {
		lo, hi := g.intervalBounds(cand, coord[cand])
		if hi-lo < 2 || g.weights[cand] == 0 {
			continue // interval holds a single value or dimension frozen
		}
		// Splitting dimension cand grows the directory by cells/dims[cand]
		// entries; respect the directory-size cap.
		if g.maxCells > 0 && len(g.cells)+len(g.cells)/g.dims[cand] > g.maxCells {
			continue
		}
		// Deficit scheduling: dimension whose split share lags its weight
		// share the most goes first (ties to the lower dimension index).
		score := g.weights[cand]*float64(g.total+1) - float64(g.splits[cand])*sumW
		if d == -1 || score > bestScore {
			d, bestScore = cand, score
		}
	}
	if d == -1 {
		return false
	}
	lo, hi := g.intervalBounds(d, coord[d])
	mid := lo + (hi-lo)/2 // new boundary: left interval [lo,mid), right [mid,hi)
	g.insertBoundary(d, coord[d], mid)
	g.splits[d]++
	g.total++
	return true
}

// intervalBounds returns the value range [lo, hi) of interval i of dimension
// d, using the domain bounds at the edges (hi is exclusive: domain hi + 1).
func (g *Grid) intervalBounds(d, i int) (lo, hi int64) {
	s := g.scales[d]
	lo = g.bounds[d][0]
	if i > 0 {
		lo = s[i-1]
	}
	hi = g.bounds[d][1] + 1
	if i < len(s) {
		hi = s[i]
	}
	return lo, hi
}

// insertBoundary adds split point v after interval `at` of dimension d,
// growing the directory by one slice and redistributing the split slice.
func (g *Grid) insertBoundary(d, at int, v int64) {
	// New scales.
	s := g.scales[d]
	s = append(s, 0)
	copy(s[at+1:], s[at:])
	s[at] = v
	g.scales[d] = s

	// Grow the directory in place. In row-major order the cells form blocks
	// of n slices of dimension d, each slice a run of `inner` consecutive
	// cells; growing dimension d shifts the slices after `at` one run
	// further within each block, and each block one run per earlier block
	// further overall. Every cell moves to a higher index or stays, so
	// moving the blocks from the back, and within a block the tail before
	// the split slice before the head, never overwrites a cell still to
	// move.
	n := g.dims[d]
	inner := 1
	for _, m := range g.dims[d+1:] {
		inner *= m
	}
	g.dims[d]++
	old := len(g.cells)
	g.cells = append(g.cells, make([][]int, old/n)...)
	for block := old/(n*inner) - 1; block >= 0; block-- {
		src := block * n * inner
		dst := block * (n + 1) * inner
		copy(g.cells[dst+(at+2)*inner:dst+(n+1)*inner], g.cells[src+(at+1)*inner:src+n*inner])
		copy(g.cells[dst+at*inner:dst+(at+1)*inner], g.cells[src+at*inner:src+(at+1)*inner])
		copy(g.cells[dst:dst+at*inner], g.cells[src:src+at*inner])
		// The split slice: partition each cell's ids by the new boundary.
		for r := dst + at*inner; r < dst+(at+1)*inner; r++ {
			g.cells[r], g.cells[r+inner] = g.partition(g.cells[r], d, v)
		}
	}
}

// partition splits ids stably into those whose point lies below v in
// dimension d and the rest, in place: the left ids move to the front of
// ids, the right ids after them. The two results share the backing array,
// so the left one is capacity-clamped and an append to it reallocates
// instead of overwriting the right one; each cell's slice thus still owns
// its whole capacity.
func (g *Grid) partition(ids []int, d int, v int64) (left, right []int) {
	nl := 0
	g.right = g.right[:0]
	for _, id := range ids {
		if g.points[id*g.k+d] < v {
			ids[nl] = id
			nl++
		} else {
			g.right = append(g.right, id)
		}
	}
	copy(ids[nl:], g.right)
	return ids[:nl:nl], ids[nl:]
}

// CellsCovering returns the flat indices of all cells intersecting the
// hyper-rectangle given by inclusive value ranges per dimension (the cells a
// query predicate maps to), in row-major order. A dimension without a
// predicate should pass the full domain.
func (g *Grid) CellsCovering(ranges [][2]int64) []int {
	var out []int
	g.EachCovering(ranges, func(flat int) { out = append(out, flat) })
	return out
}

// EachCovering calls fn with the flat index of every cell CellsCovering
// returns, in the same order, without building the list.
func (g *Grid) EachCovering(ranges [][2]int64, fn func(flat int)) {
	if len(ranges) != g.k {
		panic(fmt.Sprintf("gridfile: %d ranges for %d dimensions", len(ranges), g.k))
	}
	for _, r := range ranges {
		if r[0] > r[1] {
			return
		}
	}
	g.eachCovering(ranges, 0, 0, fn)
}

// eachCovering walks the covered intervals of dimension d and below, inside
// the cells whose row-major index over dimensions before d is base.
func (g *Grid) eachCovering(ranges [][2]int64, d, base int, fn func(flat int)) {
	from, to := g.IntervalRange(d, ranges[d][0], ranges[d][1])
	for i := from; i <= to; i++ {
		if flat := base*g.dims[d] + i; d == g.k-1 {
			fn(flat)
		} else {
			g.eachCovering(ranges, d+1, flat, fn)
		}
	}
}

// Validate checks structural invariants: scales sorted and in bounds, cell
// array size consistent with dims, every tuple in exactly the cell its point
// locates to, and total tuples preserved.
func (g *Grid) Validate() error {
	expect := 1
	for d, n := range g.dims {
		if n != len(g.scales[d])+1 {
			return fmt.Errorf("gridfile: dim %d has %d intervals but %d split points",
				d, n, len(g.scales[d]))
		}
		for i := 1; i < len(g.scales[d]); i++ {
			if g.scales[d][i-1] >= g.scales[d][i] {
				return fmt.Errorf("gridfile: dim %d scale not strictly increasing", d)
			}
		}
		for _, s := range g.scales[d] {
			if s <= g.bounds[d][0] || s > g.bounds[d][1] {
				return fmt.Errorf("gridfile: dim %d split %d outside domain (%d,%d]",
					d, s, g.bounds[d][0], g.bounds[d][1])
			}
		}
		expect *= n
	}
	if len(g.cells) != expect {
		return fmt.Errorf("gridfile: %d cells for dims %v", len(g.cells), g.dims)
	}
	count := 0
	for flat, ids := range g.cells {
		for _, id := range ids {
			if got := g.cellOf(g.point(id)); got != flat {
				return fmt.Errorf("gridfile: tuple %d stored in cell %d but locates to %d",
					id, flat, got)
			}
		}
		count += len(ids)
	}
	if count != g.inserted {
		return fmt.Errorf("gridfile: inserted %d but cells hold %d", g.inserted, count)
	}
	return nil
}
