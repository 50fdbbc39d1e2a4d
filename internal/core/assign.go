package core

import (
	"fmt"
	"math"
)

// AssignOwners maps every cell of a grid directory to a processor
// (Section 3.4). It reconstructs the [Gha90] heuristic as a tiled
// mixed-radix ("latin") pattern:
//
// The processors are factored into per-dimension radices A_d with
// ∏ A_d = P, and cell coordinates map to owner
//
//	owner(c) = Σ_d (c_d mod A_d) · ∏_{d' < d} A_{d'}
//
// A query on attribute d fixes coordinate d and therefore meets exactly
// P / A_d distinct processors, so the radices are chosen to make P / A_d
// approximate the planned Mi of dimension d. Because the tile repeats
// across the directory, all P processors receive ⌈cells/P⌉±1 cells — both
// Section 3.4 goals at once. For K == 1 the assignment is round-robin
// (footnote 7 of the paper).
//
// dims are the directory dimensions (Ni), p the processor count, and mi the
// planned per-dimension processor counts.
func AssignOwners(dims []int, p int, mi []float64) []int {
	if len(dims) == 0 || p <= 0 {
		panic("core: AssignOwners needs dimensions and processors")
	}
	cells := 1
	for _, n := range dims {
		if n <= 0 {
			panic(fmt.Sprintf("core: bad directory dimensions %v", dims))
		}
		cells *= n
	}
	owners := make([]int, cells)
	if len(dims) == 1 {
		for i := range owners {
			owners[i] = i % p
		}
		return owners
	}
	if len(mi) != len(dims) {
		panic(fmt.Sprintf("core: %d Mi values for %d dimensions", len(mi), len(dims)))
	}
	radices := chooseRadices(len(dims), p, mi)
	coord := make([]int, len(dims))
	for flat := 0; flat < cells; flat++ {
		owner, stride := 0, 1
		for d := range dims {
			owner += (coord[d] % radices[d]) * stride
			stride *= radices[d]
		}
		owners[flat] = owner
		// Row-major increment (last dimension fastest), matching the grid
		// file's flat indexing.
		for d := len(dims) - 1; d >= 0; d-- {
			coord[d]++
			if coord[d] < dims[d] {
				break
			}
			coord[d] = 0
		}
	}
	return owners
}

// chooseRadices enumerates factorizations of p into k radices and picks the
// one whose per-dimension processor counts p/A_d best match mi (log-scale
// error, so 2x too many and 2x too few weigh equally).
func chooseRadices(k, p int, mi []float64) []int {
	target := make([]float64, k)
	for d := range mi {
		m := mi[d]
		if m < 1 {
			m = 1
		}
		if m > float64(p) {
			m = float64(p)
		}
		target[d] = m
	}
	best := make([]int, k)
	for i := range best {
		best[i] = 1
	}
	best[0] = p
	bestScore := math.Inf(1)
	cur := make([]int, k)
	var rec func(d, rem int)
	rec = func(d, rem int) {
		if d == k-1 {
			cur[d] = rem
			score := 0.0
			for i := 0; i < k; i++ {
				eff := float64(p) / float64(cur[i]) // processors a dim-i query meets
				score += math.Abs(math.Log(eff / target[i]))
			}
			if score < bestScore {
				bestScore = score
				copy(best, cur)
			}
			return
		}
		for a := 1; a <= rem; a++ {
			if rem%a == 0 {
				cur[d] = a
				rec(d+1, rem/a)
			}
		}
	}
	rec(0, p)
	return best
}

// SliceDistinct reports, for each slice (interval) of dimension d, how many
// distinct processors own cells in the slice — the quantity the paper's
// Section 3.4 constraint bounds below by Mi.
func SliceDistinct(owners []int, dims []int, d int) []int {
	out := make([]int, dims[d])
	seen := make([]map[int]bool, dims[d])
	for i := range seen {
		seen[i] = make(map[int]bool)
	}
	forEachCell(dims, func(flat int, coord []int) {
		seen[coord[d]][owners[flat]] = true
	})
	for i, s := range seen {
		out[i] = len(s)
	}
	return out
}

// NonEmptySliceDistinct is SliceDistinct restricted to cells that actually
// hold tuples — the processor count the optimizer really uses, since empty
// entries are pruned at routing time (Section 4).
func NonEmptySliceDistinct(owners []int, dims []int, counts []int, d int) []int {
	out := make([]int, dims[d])
	seen := make([]map[int]bool, dims[d])
	for i := range seen {
		seen[i] = make(map[int]bool)
	}
	forEachCell(dims, func(flat int, coord []int) {
		if counts[flat] > 0 {
			seen[coord[d]][owners[flat]] = true
		}
	})
	for i, s := range seen {
		out[i] = len(s)
	}
	return out
}

// forEachCell iterates the row-major cells of a directory.
func forEachCell(dims []int, fn func(flat int, coord []int)) {
	cells := 1
	for _, n := range dims {
		cells *= n
	}
	coord := make([]int, len(dims))
	for flat := 0; flat < cells; flat++ {
		fn(flat, coord)
		for d := len(dims) - 1; d >= 0; d-- {
			coord[d]++
			if coord[d] < dims[d] {
				break
			}
			coord[d] = 0
		}
	}
}

// ProcessorLoads sums per-cell tuple counts by owner.
func ProcessorLoads(owners, counts []int, p int) []int {
	loads := make([]int, p)
	for flat, o := range owners {
		loads[o] += counts[flat]
	}
	return loads
}

// LoadSpread summarizes an assignment's balance: the minimum, maximum and
// mean per-processor tuple counts.
func LoadSpread(owners, counts []int, p int) (min, max int, mean float64) {
	loads := ProcessorLoads(owners, counts, p)
	min, max = loads[0], loads[0]
	total := 0
	for _, l := range loads {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
		total += l
	}
	return min, max, float64(total) / float64(p)
}

// AssignOwnersBalanced is AssignOwners with skew awareness: within each
// dimension, slices are ranked by their tuple weight and dealt round-robin
// into the A_d radix classes, so heavy and light slices interleave across
// the tile instead of resonating with the grid file's dyadic interval
// widths. Per-slice distinct-processor counts are identical to
// AssignOwners (the rank map is just a per-dimension slice permutation,
// which the paper's own swap operation shows is distinctness-preserving).
// counts gives the tuple count of each flat cell; nil falls back to
// AssignOwners.
func AssignOwnersBalanced(dims []int, p int, mi []float64, counts []int) []int {
	if counts == nil || len(dims) == 1 {
		return AssignOwners(dims, p, mi)
	}
	if len(mi) != len(dims) {
		panic(fmt.Sprintf("core: %d Mi values for %d dimensions", len(mi), len(dims)))
	}
	radices := chooseRadices(len(dims), p, mi)
	// class[d][i] = radix class of slice i of dimension d.
	class := make([][]int, len(dims))
	for d := range dims {
		weights := make([]int, dims[d])
		forEachCell(dims, func(flat int, coord []int) {
			weights[coord[d]] += counts[flat]
		})
		order := make([]int, dims[d])
		for i := range order {
			order[i] = i
		}
		sortByWeightDesc(order, weights)
		class[d] = make([]int, dims[d])
		for rank, slice := range order {
			class[d][slice] = rank % radices[d]
		}
	}
	cells := 1
	for _, n := range dims {
		cells *= n
	}
	owners := make([]int, cells)
	forEachCell(dims, func(flat int, coord []int) {
		owner, stride := 0, 1
		for d := range dims {
			owner += class[d][coord[d]] * stride
			stride *= radices[d]
		}
		owners[flat] = owner
	})
	return owners
}

// sortByWeightDesc orders slice indices by descending weight, stable.
func sortByWeightDesc(order []int, weights []int) {
	// Insertion sort: dims are small (hundreds) and stability matters.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && weights[order[j]] > weights[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}

// Rebalance is the Section 4 hill-climbing heuristic: repeatedly swap the
// ownership of the two slices (of any one dimension) whose exchange most
// improves the balance of per-processor tuple counts, until no swap
// improves it. The paper states its climber narrows the gap between the
// heaviest and lightest processors; a literal max/min-pair objective can
// oscillate (a swap helping one extreme pair re-skews another), so we score
// swaps by the sum-of-squares potential sum(load^2), which strictly
// decreases on every accepted swap and therefore converges to the same kind
// of local optimum monotonically. Swapping whole slices preserves the
// number of distinct processors in every slice of every dimension. owners
// is modified in place; the return value is the number of swaps applied.
//
// Each iteration scans the slice pairs in the order dimension, then i, then
// j > i, and applies the first pair with the strictly lowest score. Scoring
// is incremental (see swapTable), with exact integer arithmetic; the
// absolute cell counts must sum below 2^30, and Rebalance panics if they
// do not.
func Rebalance(owners []int, dims []int, counts []int, p, maxIters int) int {
	if len(owners) != len(counts) {
		panic("core: owners/counts length mismatch")
	}
	if maxIters <= 0 {
		return 0
	}
	t := newSwapTable(owners, dims, counts, p)
	swaps := 0
	for ; swaps < maxIters; swaps++ {
		k := t.best()
		if k < 0 {
			break // no swap improves the balance: local optimum
		}
		t.swap(k)
	}
	return swaps
}

// maxRebalanceCount bounds the sum of Rebalance's absolute cell counts.
const maxRebalanceCount = 1 << 30

// swapTable scores slice swaps for Rebalance. Swapping slices i and j of a
// dimension moves, at every rest coordinate r, cell (i,r)'s count from its
// owner to (j,r)'s owner and back, so the pair's per-processor load delta
// δ depends only on owners and counts, never on the current loads. The
// table keeps δ for every pair, and a swap's change to Σ load² is
//
//	Σ_q δ_q(2·l_q + δ_q) = 2·(δ·l) + Σ_q δ_q²
//
// with both δ·l and Σδ² cached per pair. Applying a swap changes the
// owners of the cells of two slices; a cell x sits in one slice per
// dimension, and an owner change of x alters only the δ of the pairs that
// include that slice, in two entries each (see setOwner). The entries are
// int32, half the table int64 entries would take: each is a signed sum of
// cell counts, which Rebalance bounds below 2^30. The swap also
// moves the loads of a few processors, which the next scan folds into
// every pair's δ·l (see best).
type swapTable struct {
	owners, dims, counts []int
	p                    int
	loads                []int64
	synced               []int64 // the loads dot reflects
	strides              []int   // row-major stride of each dimension
	first                []int   // first pair index of each dimension; the last entry is the pair count
	pairs                int
	delta                []int32 // delta[q*pairs+k]: processor q's load change if pair k swaps
	sq                   []int64 // sq[k] = Σ_q delta[q*pairs+k]²
	dot                  []int64 // dot[k] = Σ_q delta[q*pairs+k]·synced[q]
}

func newSwapTable(owners, dims, counts []int, p int) *swapTable {
	t := &swapTable{
		owners:  owners,
		dims:    dims,
		counts:  counts,
		p:       p,
		loads:   make([]int64, p),
		synced:  make([]int64, p),
		strides: make([]int, len(dims)),
		first:   make([]int, len(dims)+1),
	}
	cells := 1
	for d := len(dims) - 1; d >= 0; d-- {
		t.strides[d] = cells
		cells *= dims[d]
	}
	if cells != len(owners) {
		panic(fmt.Sprintf("core: %d owners for directory dimensions %v", len(owners), dims))
	}
	// Every δ_q is a signed sum of cell counts, so this bound keeps the
	// table's int32 entries exact.
	total := 0
	for _, c := range counts {
		if total += max(c, -c); total >= maxRebalanceCount {
			panic("core: Rebalance needs cell counts whose absolute values sum below 2^30")
		}
	}
	for d, n := range dims {
		t.first[d+1] = t.first[d] + n*(n-1)/2
	}
	pairs := t.first[len(dims)]
	t.pairs = pairs
	t.delta = make([]int32, p*pairs)
	t.sq = make([]int64, pairs)
	t.dot = make([]int64, pairs)
	for x, o := range owners {
		t.loads[o] += int64(counts[x])
	}
	copy(t.synced, t.loads)
	// At rest coordinate r, pair (a, b) moves count(b,r) - count(a,r) onto
	// owner(a,r) and the opposite onto owner(b,r). The pairs of a dimension
	// are tabulated from slice-major copies of its counts and owners, which
	// keep each slice's cells contiguous.
	row := make([]int64, p)
	sc, so := make([]int, cells), make([]int, cells)
	for d, n := range dims {
		s, rest := t.strides[d], cells/n
		for x := range owners {
			i := x/s%n*rest + x/(n*s)*s + x%s // slice, then rest coordinate
			sc[i], so[i] = counts[x], owners[x]
		}
		k := t.first[d]
		for a := 0; a < n; a++ {
			ca, oa := sc[a*rest:(a+1)*rest], so[a*rest:(a+1)*rest]
			for b := a + 1; b < n; b, k = b+1, k+1 {
				cb, ob := sc[b*rest:(b+1)*rest], so[b*rest:(b+1)*rest]
				clear(row)
				for r, c := range ca {
					w := int64(cb[r] - c)
					row[oa[r]] += w
					row[ob[r]] -= w
				}
				for q, v := range row {
					t.delta[q*pairs+k] = int32(v)
					t.sq[k] += v * v
					t.dot[k] += v * t.loads[q]
				}
			}
		}
	}
	return t
}

// pair returns the index of slice pair (i, j), i < j, of dimension d.
func (t *swapTable) pair(d, i, j int) int {
	return t.first[d] + i*(2*t.dims[d]-i-1)/2 + j - i - 1
}

// best returns the first pair in scan order whose swap lowers Σ load² the
// most, or -1 when no swap lowers it. It first brings every pair's δ·l up
// to date with the loads the last swap moved.
func (t *swapTable) best() int {
	for q, l := range t.loads {
		if by := l - t.synced[q]; by != 0 {
			dot := t.dot
			for k, v := range t.delta[q*t.pairs : (q+1)*t.pairs] {
				dot[k] += int64(v) * by
			}
			t.synced[q] = l
		}
	}
	var bestPhi int64 // must be strictly negative to accept
	bestK := -1
	for k, s := range t.sq {
		if s == 0 {
			continue // every δ_q is zero: the swap changes no load
		}
		if phi := 2*t.dot[k] + s; phi < bestPhi {
			bestPhi, bestK = phi, k
		}
	}
	return bestK
}

// swap exchanges the owners of the two slices of pair k.
func (t *swapTable) swap(k int) {
	d := 0
	for k >= t.first[d+1] {
		d++
	}
	n, i, r := t.dims[d], 0, k-t.first[d]
	for r >= n-1-i {
		r -= n - 1 - i
		i++
	}
	j := i + 1 + r
	s := t.strides[d]
	// Slice i of dimension d is one run of s consecutive cells per block of
	// n*s cells.
	for block := i * s; block < len(t.owners); block += n * s {
		for x := block; x < block+s; x++ {
			y := x + (j-i)*s
			if ox, oy := t.owners[x], t.owners[y]; ox != oy {
				t.setOwner(x, oy)
				t.setOwner(y, ox)
			}
		}
	}
}

// setOwner moves cell x to processor v, which is not its owner, patching
// the loads and every pair that includes x's slice in some dimension. For
// such a pair, x's term at its rest coordinate is w = count(partner) -
// count(x) on x's owner (the partner's term does not depend on x's owner),
// so moving x from u to v subtracts w from δ_u and adds it to δ_v. That
// changes the pair's Σδ² by 2w(δ_v - δ_u + w) and its δ·l by
// w(l_v - l_u), at the synced loads.
func (t *swapTable) setOwner(x, v int) {
	u, c := t.owners[x], t.counts[x]
	t.owners[x] = v
	t.loads[u] -= int64(c)
	t.loads[v] += int64(c)
	du, dv := t.delta[u*t.pairs:(u+1)*t.pairs], t.delta[v*t.pairs:(v+1)*t.pairs]
	dl := t.synced[v] - t.synced[u]
	for d, n := range t.dims {
		s := t.strides[d]
		a := x / s % n
		y := x - a*s
		for b := 0; b < n; b, y = b+1, y+s {
			w := int64(t.counts[y] - c)
			if w == 0 {
				continue // also skips b == a, where y == x
			}
			k := t.pair(d, min(a, b), max(a, b))
			ou, ov := int64(du[k]), int64(dv[k])
			du[k], dv[k] = int32(ou-w), int32(ov+w)
			t.sq[k] += 2 * w * (ov - ou + w)
			t.dot[k] += w * dl
		}
	}
}
