package gridfile

import (
	"slices"
	"sort"
	"testing"
)

// referenceGrid is the grid file's insertion phase as it was first
// written: one slice per point, coordinates decoded into a new slice per
// split, and a new directory with new left and right id lists built on
// every split. FuzzGridInsert holds Grid to it.
type referenceGrid struct {
	k        int
	capacity int
	weights  []float64
	bounds   [][2]int64
	scales   [][]int64
	dims     []int
	cells    [][]int
	points   [][]int64
	splits   []int
	total    int
	overflow int
	maxCells int
}

func newReferenceGrid(capacity int, weights []float64, bounds [][2]int64) *referenceGrid {
	k := len(weights)
	g := &referenceGrid{
		k:        k,
		capacity: capacity,
		weights:  append([]float64(nil), weights...),
		bounds:   append([][2]int64(nil), bounds...),
		scales:   make([][]int64, k),
		dims:     make([]int, k),
		cells:    make([][]int, 1),
		splits:   make([]int, k),
	}
	for d := range g.dims {
		g.dims[d] = 1
	}
	return g
}

func (g *referenceGrid) insert(point []int64, id int) {
	g.points = append(g.points, append([]int64(nil), point...))
	ci := g.cellOf(point)
	g.cells[ci] = append(g.cells[ci], id)
	for len(g.cells[ci]) > g.capacity {
		if !g.split(ci) {
			g.overflow++
			break
		}
		ci = g.cellOf(point)
	}
}

func (g *referenceGrid) cellOf(point []int64) int {
	idx := 0
	for d, v := range point {
		s := g.scales[d]
		idx = idx*g.dims[d] + sort.Search(len(s), func(i int) bool { return s[i] > v })
	}
	return idx
}

func (g *referenceGrid) coord(flat int) []int {
	coord := make([]int, g.k)
	for d := g.k - 1; d >= 0; d-- {
		coord[d] = flat % g.dims[d]
		flat /= g.dims[d]
	}
	return coord
}

func (g *referenceGrid) intervalBounds(d, i int) (lo, hi int64) {
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

func (g *referenceGrid) split(flat int) bool {
	coord := g.coord(flat)
	d := -1
	var bestScore float64
	sumW := 0.0
	for _, w := range g.weights {
		sumW += w
	}
	for cand := 0; cand < g.k; cand++ {
		lo, hi := g.intervalBounds(cand, coord[cand])
		if hi-lo < 2 || g.weights[cand] == 0 {
			continue
		}
		if g.maxCells > 0 && len(g.cells)+len(g.cells)/g.dims[cand] > g.maxCells {
			continue
		}
		score := g.weights[cand]*float64(g.total+1) - float64(g.splits[cand])*sumW
		if d == -1 || score > bestScore {
			d, bestScore = cand, score
		}
	}
	if d == -1 {
		return false
	}
	lo, hi := g.intervalBounds(d, coord[d])
	g.insertBoundary(d, coord[d], lo+(hi-lo)/2)
	g.splits[d]++
	g.total++
	return true
}

func (g *referenceGrid) insertBoundary(d, at int, v int64) {
	s := g.scales[d]
	s = append(s, 0)
	copy(s[at+1:], s[at:])
	s[at] = v
	g.scales[d] = s

	n := g.dims[d]
	inner := 1
	for _, m := range g.dims[d+1:] {
		inner *= m
	}
	g.dims[d]++
	newCells := make([][]int, len(g.cells)/n*g.dims[d])
	for block := 0; block*n*inner < len(g.cells); block++ {
		src := g.cells[block*n*inner : (block+1)*n*inner]
		dst := newCells[block*(n+1)*inner : (block+1)*(n+1)*inner]
		copy(dst, src[:at*inner])
		copy(dst[(at+2)*inner:], src[(at+1)*inner:])
		for r, ids := range src[at*inner : (at+1)*inner] {
			var left, right []int
			for _, id := range ids {
				if g.points[id][d] < v {
					left = append(left, id)
				} else {
					right = append(right, id)
				}
			}
			dst[at*inner+r] = left
			dst[(at+1)*inner+r] = right
		}
	}
	g.cells = newCells
}

// FuzzGridInsert inserts points decoded from the fuzz input into a Grid
// and a referenceGrid built alike — 1 to 3 dimensions, small domains so
// values repeat, a small capacity, weights that may freeze a dimension and
// an optional directory-size cap — and requires the same directory after
// every insertion: shape, scales, overflow count, number of cells and
// every cell's ids in order. The grid must also validate.
func FuzzGridInsert(f *testing.F) {
	f.Add([]byte{1, 1, 2, 2, 3, 3, 9, 0, 0, 9, 5, 5, 5, 5, 5, 5}, uint8(1), uint8(16), uint8(0), uint8(1), uint8(1), uint8(1), uint8(0))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, uint8(2), uint8(8), uint8(1), uint8(0), uint8(2), uint8(1), uint8(3))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23}, uint8(2), uint8(64), uint8(0), uint8(1), uint8(2), uint8(0), uint8(30))
	f.Add([]byte{}, uint8(0), uint8(3), uint8(2), uint8(2), uint8(0), uint8(5), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, kRaw, domain, capRaw, w0, w1, w2, maxCells uint8) {
		const maxPoints = 300
		k := 1 + int(kRaw)%3
		dom := 1 + int64(domain)%64
		weights := []float64{1 + float64(w0%3), float64(w1 % 3), float64(w2 % 3)}[:k]
		bounds := make([][2]int64, k)
		for d := range bounds {
			bounds[d] = [2]int64{0, dom - 1}
		}
		capacity := 1 + int(capRaw)%4
		g := New(capacity, weights, bounds)
		ref := newReferenceGrid(capacity, weights, bounds)
		g.SetMaxCells(int(maxCells) % 40)
		ref.maxCells = int(maxCells) % 40
		if len(data) > k*maxPoints {
			data = data[:k*maxPoints]
		}
		for id := 0; (id+1)*k <= len(data); id++ {
			p := make([]int64, k)
			for d := range p {
				p[d] = int64(data[id*k+d]) % dom
			}
			g.Insert(p, id)
			ref.insert(p, id)
			if !slices.Equal(g.Dims(), ref.dims) || g.OverflowCells() != ref.overflow ||
				g.NumCells() != len(ref.cells) {
				t.Fatalf("after %d points: dims %v overflow %d cells %d, reference dims %v overflow %d cells %d",
					id+1, g.Dims(), g.OverflowCells(), g.NumCells(), ref.dims, ref.overflow, len(ref.cells))
			}
			for d := 0; d < k; d++ {
				if !slices.Equal(g.scales[d], ref.scales[d]) {
					t.Fatalf("after %d points: dim %d scale %v, reference %v", id+1, d, g.scales[d], ref.scales[d])
				}
			}
			for flat := range ref.cells {
				if !slices.Equal(g.Cell(flat), ref.cells[flat]) {
					t.Fatalf("after %d points: cell %d holds %v, reference %v", id+1, flat, g.Cell(flat), ref.cells[flat])
				}
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}
