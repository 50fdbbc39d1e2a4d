package gridfile

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func uniformGrid(t *testing.T, n, capacity int, weights []float64) *Grid {
	t.Helper()
	g := New(capacity, weights, [][2]int64{{0, int64(n - 1)}, {0, int64(n - 1)}})
	perm := rand.New(rand.NewSource(11)).Perm(n)
	for i := 0; i < n; i++ {
		g.Insert([]int64{int64(perm[i]), int64(i)}, i)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid grid: %v", err)
	}
	return g
}

// Sealing drops the points but not the directory: every lookup, coverage
// query and count answers as before, Validate still passes, and a later
// Insert panics.
func TestSealKeepsDirectory(t *testing.T) {
	g := uniformGrid(t, 500, 8, []float64{1, 2})
	type answers struct {
		cells, overflow int
		dims            []int
		locate, cover   []int
		counts          []int
	}
	read := func() answers {
		a := answers{cells: g.NumCells(), overflow: g.OverflowCells(), dims: g.Dims()}
		for v := int64(0); v < 500; v += 37 {
			a.locate = append(a.locate, g.CellOf([]int64{v, 499 - v}, []int{0, 1}))
			a.cover = append(a.cover, g.CellsCovering([][2]int64{{v, v + 60}, {0, 499}})...)
		}
		for flat := 0; flat < g.NumCells(); flat++ {
			a.counts = append(a.counts, g.CellCount(flat))
		}
		return a
	}
	before := read()
	g.Seal()
	if after := read(); !reflect.DeepEqual(after, before) {
		t.Fatalf("sealing changed the directory's answers:\n%+v\nwant\n%+v", after, before)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("sealed grid invalid: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Insert after Seal did not panic")
		}
	}()
	g.Insert([]int64{1, 1}, g.Inserted())
}

func TestInsertAndLocate(t *testing.T) {
	g := New(2, []float64{1, 1}, [][2]int64{{0, 99}, {0, 99}})
	pts := [][]int64{{10, 10}, {20, 20}, {30, 30}, {80, 80}, {90, 5}}
	for i, p := range pts {
		g.Insert(p, i)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Inserted() != 5 {
		t.Fatalf("inserted = %d", g.Inserted())
	}
	if g.NumCells() < 2 {
		t.Fatal("grid never split despite overflow")
	}
	// Every point must be found in its located cell.
	for i, p := range pts {
		flat := g.cellOf(p)
		found := false
		for _, id := range g.Cell(flat) {
			if id == i {
				found = true
			}
		}
		if !found {
			t.Fatalf("point %d not in its cell", i)
		}
	}
}

func TestCapacityRespectedForUniqueValues(t *testing.T) {
	g := uniformGrid(t, 2000, 25, []float64{1, 1})
	for flat := 0; flat < g.NumCells(); flat++ {
		if c := g.CellCount(flat); c > 25 {
			t.Fatalf("cell %d holds %d tuples, capacity 25", flat, c)
		}
	}
	if g.OverflowCells() != 0 {
		t.Fatalf("unexpected overflow cells: %d", g.OverflowCells())
	}
}

func TestEqualWeightsGiveSquarishDirectory(t *testing.T) {
	g := uniformGrid(t, 5000, 25, []float64{1, 1})
	dims := g.Dims()
	ratio := float64(dims[0]) / float64(dims[1])
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("dims %v not squarish for equal weights", dims)
	}
}

// The paper splits attribute B nine times more often than A for the
// low-moderate mix, yielding a 23x193-shaped directory: verify the split
// ratio roughly tracks the weights.
func TestWeightedSplitRatio(t *testing.T) {
	g := uniformGrid(t, 5000, 25, []float64{1, 9})
	dims := g.Dims()
	ratio := float64(dims[1]) / float64(dims[0])
	if ratio < 4 || ratio > 16 {
		t.Fatalf("dims %v: dim1/dim0 = %g, want ~9", dims, ratio)
	}
}

func TestZeroWeightDimensionNeverSplits(t *testing.T) {
	g := uniformGrid(t, 1000, 25, []float64{0, 1})
	if dims := g.Dims(); dims[0] != 1 {
		t.Fatalf("frozen dimension split: dims = %v", dims)
	}
}

func TestCorrelatedDataProducesEmptyCells(t *testing.T) {
	// Identical attributes: all points on the diagonal. Off-diagonal cells
	// must be empty, and splits must still succeed (values are unique).
	n := 2000
	g := New(25, []float64{1, 1}, [][2]int64{{0, int64(n - 1)}, {0, int64(n - 1)}})
	for i := 0; i < n; i++ {
		g.Insert([]int64{int64(i), int64(i)}, i)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	empty := 0
	for flat := 0; flat < g.NumCells(); flat++ {
		if g.CellCount(flat) == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("diagonal data should leave empty cells")
	}
	for flat := 0; flat < g.NumCells(); flat++ {
		if c := g.CellCount(flat); c > 25 {
			t.Fatalf("cell %d overflows: %d", flat, c)
		}
	}
}

func TestDuplicateValuesOverflowGracefully(t *testing.T) {
	// All points identical: no dimension can ever split.
	g := New(2, []float64{1, 1}, [][2]int64{{0, 10}, {0, 10}})
	for i := 0; i < 10; i++ {
		g.Insert([]int64{5, 5}, i)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.OverflowCells() == 0 {
		t.Fatal("expected overflow to be recorded")
	}
	if g.NumCells() != 1 && g.CellCount(g.cellOf([]int64{5, 5})) != 10 {
		t.Fatal("all duplicates must stay in one cell")
	}
}

func TestIntervalRange(t *testing.T) {
	g := uniformGrid(t, 1000, 25, []float64{1, 1})
	from, to := g.IntervalRange(0, 0, 999)
	if from != 0 || to != g.Dims()[0]-1 {
		t.Fatalf("full range = [%d,%d], dims %v", from, to, g.Dims())
	}
	f2, t2 := g.IntervalRange(0, 500, 500)
	if f2 != t2 {
		t.Fatalf("point range spans [%d,%d]", f2, t2)
	}
}

func TestCellsCoveringRowAndColumn(t *testing.T) {
	g := uniformGrid(t, 2000, 25, []float64{1, 1})
	dims := g.Dims()
	// A point predicate on dim 0 with full range on dim 1 covers one column.
	col := g.CellsCovering([][2]int64{{500, 500}, {0, 1999}})
	if len(col) != dims[1] {
		t.Fatalf("column covers %d cells, want %d", len(col), dims[1])
	}
	row := g.CellsCovering([][2]int64{{0, 1999}, {500, 500}})
	if len(row) != dims[0] {
		t.Fatalf("row covers %d cells, want %d", len(row), dims[0])
	}
	all := g.CellsCovering([][2]int64{{0, 1999}, {0, 1999}})
	if len(all) != g.NumCells() {
		t.Fatalf("full cover = %d cells, want %d", len(all), g.NumCells())
	}
}

func TestCellsCoveringEmptyRange(t *testing.T) {
	g := uniformGrid(t, 100, 25, []float64{1, 1})
	if cells := g.CellsCovering([][2]int64{{5, 4}, {0, 99}}); cells != nil {
		t.Fatalf("inverted range covered %d cells", len(cells))
	}
}

// Property: every inserted point is discoverable through CellsCovering with
// a point predicate on both dimensions.
func TestPointQueriesFindTheirTuple(t *testing.T) {
	g := uniformGrid(t, 3000, 20, []float64{1, 3})
	src := rng.NewSource("q", 5)
	for trial := 0; trial < 200; trial++ {
		id := src.Intn(3000)
		pt := g.point(id)
		cells := g.CellsCovering([][2]int64{{pt[0], pt[0]}, {pt[1], pt[1]}})
		if len(cells) != 1 {
			t.Fatalf("point query covered %d cells", len(cells))
		}
		found := false
		for _, got := range g.Cell(cells[0]) {
			if got == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("tuple %d not found via point query", id)
		}
	}
}

// Property: range queries over the grid return a superset of the matching
// tuples and no cell outside the cover contains a match.
func TestRangeCoverCompleteProperty(t *testing.T) {
	g := uniformGrid(t, 2000, 25, []float64{1, 1})
	check := func(loRaw, width uint16) bool {
		lo := int64(loRaw) % 2000
		hi := lo + int64(width%200)
		if hi > 1999 {
			hi = 1999
		}
		cover := map[int]bool{}
		for _, c := range g.CellsCovering([][2]int64{{lo, hi}, {0, 1999}}) {
			cover[c] = true
		}
		// Every tuple with dim0 value in [lo,hi] must be in a covered cell.
		for id := 0; id < g.Inserted(); id++ {
			if pt := g.point(id); pt[0] >= lo && pt[0] <= hi {
				if !cover[g.cellOf(pt)] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitCountsMatchDims(t *testing.T) {
	g := uniformGrid(t, 2000, 25, []float64{1, 1})
	dims := g.Dims()
	if g.splits[0] != dims[0]-1 || g.splits[1] != dims[1]-1 {
		t.Fatalf("splits %v vs dims %v", g.splits, dims)
	}
	if g.total != g.splits[0]+g.splits[1] {
		t.Fatal("total splits inconsistent")
	}
}

func TestFragmentSizesRoughlyUniform(t *testing.T) {
	g := uniformGrid(t, 10000, 25, []float64{1, 1})
	var sum, n float64
	for flat := 0; flat < g.NumCells(); flat++ {
		sum += float64(g.CellCount(flat))
		n++
	}
	mean := sum / n
	if math.Abs(mean-float64(10000)/n) > 1e-9 {
		t.Fatal("mean inconsistent")
	}
	// With uniform data the average cell should hold a reasonable fraction
	// of capacity (not pathologically empty).
	if mean < 5 {
		t.Fatalf("mean occupancy %g too low for capacity 25", mean)
	}
}

func TestConstructorValidation(t *testing.T) {
	cases := []func(){
		func() { New(0, []float64{1}, [][2]int64{{0, 1}}) },
		func() { New(2, nil, nil) },
		func() { New(2, []float64{1, 1}, [][2]int64{{0, 1}}) },
		func() { New(2, []float64{-1, 1}, [][2]int64{{0, 1}, {0, 1}}) },
		func() { New(2, []float64{0, 0}, [][2]int64{{0, 1}, {0, 1}}) },
		func() { New(2, []float64{1, 1}, [][2]int64{{5, 1}, {0, 1}}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: constructor accepted bad arguments", i)
				}
			}()
			fn()
		}()
	}
}

func TestInsertValidation(t *testing.T) {
	g := New(2, []float64{1, 1}, [][2]int64{{0, 9}, {0, 9}})
	for i, fn := range []func(){
		func() { g.Insert([]int64{1}, 0) },      // wrong dims
		func() { g.Insert([]int64{1, 1}, 5) },   // non-dense id
		func() { g.Insert([]int64{100, 1}, 0) }, // out of bounds
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: Insert accepted bad arguments", i)
				}
			}()
			fn()
		}()
	}
}

// CellOf reads each dimension's value from its own attribute slot, so a
// tuple with the point's values scattered among other attributes lands in
// the point's cell.
func TestCellOfReadsAttrs(t *testing.T) {
	g := uniformGrid(t, 2000, 25, []float64{1, 2})
	attrs := []int{3, 1}
	for id := 0; id < g.Inserted(); id++ {
		p := g.point(id)
		values := []int64{-1, p[1], -1, p[0], -1}
		if got, want := g.CellOf(values, attrs), g.cellOf(p); got != want {
			t.Fatalf("point %d %v: CellOf = %d, cell %d", id, p, got, want)
		}
	}
}

func TestCoordRoundTrip(t *testing.T) {
	g := uniformGrid(t, 2000, 25, []float64{1, 2})
	for flat := 0; flat < g.NumCells(); flat++ {
		if got := g.flatIndex(g.Coord(flat)); got != flat {
			t.Fatalf("coord round trip %d -> %d", flat, got)
		}
	}
}

func TestThreeDimensionalGrid(t *testing.T) {
	g := New(10, []float64{1, 1, 1}, [][2]int64{{0, 999}, {0, 999}, {0, 999}})
	src := rng.NewSource("3d", 13)
	for i := 0; i < 1000; i++ {
		g.Insert([]int64{int64(src.Intn(1000)), int64(src.Intn(1000)), int64(src.Intn(1000))}, i)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Dims()) != 3 {
		t.Fatalf("dims = %v, want 3", g.Dims())
	}
	cells := g.CellsCovering([][2]int64{{0, 999}, {500, 500}, {0, 999}})
	dims := g.Dims()
	if len(cells) != dims[0]*dims[2] {
		t.Fatalf("3D slab covers %d cells, want %d", len(cells), dims[0]*dims[2])
	}
}

// Splits move whole cells and partition the split slice stably, so after
// every insertion each cell must hold exactly the ids locating to it, in
// insertion order — which pins the directory contents split by split.
func TestSplitsKeepCellsInInsertionOrder(t *testing.T) {
	for k := 1; k <= 3; k++ {
		weights := []float64{1, 2, 0.5}[:k]
		bounds := make([][2]int64, k)
		for d := range bounds {
			bounds[d] = [2]int64{0, 63}
		}
		g := New(3, weights, bounds)
		src := rng.NewSource("order", int64(k))
		for id := 0; id < 400; id++ {
			point := make([]int64, k)
			for d := range point {
				point[d] = int64(src.Intn(64))
			}
			g.Insert(point, id)
			if err := g.Validate(); err != nil {
				t.Fatalf("k=%d after %d inserts: %v", k, id+1, err)
			}
			for flat := 0; flat < g.NumCells(); flat++ {
				ids := g.Cell(flat)
				for i := 1; i < len(ids); i++ {
					if ids[i-1] >= ids[i] {
						t.Fatalf("k=%d after %d inserts: cell %d holds ids %v out of order", k, id+1, flat, ids)
					}
				}
			}
		}
	}
}

// FuzzGridCellsCovering inserts points decoded from the fuzz input (two
// bytes each, reduced into a small square domain so values repeat) into a
// small-capacity 2-D grid and checks it against brute force: the grid must
// validate, and CellsCovering of a range (which may leave the domain or be
// inverted) must return distinct cells that each meet the range, including
// the cell of every inserted point inside it, and nothing for an inverted
// range. The edge intervals of a dimension catch values beyond the domain,
// as cellOf does.
func FuzzGridCellsCovering(f *testing.F) {
	f.Add([]byte{1, 1, 2, 2, 3, 3, 9, 0, 0, 9, 5, 5, 5, 5, 5, 5}, uint8(16), uint8(0), uint8(1), uint8(1), uint8(0), uint8(2), uint8(7), uint8(3), uint8(9))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, uint8(8), uint8(1), uint8(0), uint8(2), uint8(3), uint8(6), uint8(4), uint8(0), uint8(9))
	f.Add([]byte{}, uint8(3), uint8(2), uint8(2), uint8(0), uint8(5), uint8(1), uint8(0), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, domain, capRaw, w0, w1, maxCells, lo0Raw, width0, lo1Raw, width1 uint8) {
		const maxPoints = 300
		if len(data) > 2*maxPoints {
			data = data[:2*maxPoints]
		}
		dom := 1 + int64(domain)%64
		g := New(1+int(capRaw)%4, []float64{1 + float64(w0%3), float64(w1 % 3)},
			[][2]int64{{0, dom - 1}, {0, dom - 1}})
		g.SetMaxCells(int(maxCells) % 40)
		var points [][]int64
		for i := 0; i+1 < len(data); i += 2 {
			p := []int64{int64(data[i]) % dom, int64(data[i+1]) % dom}
			g.Insert(p, len(points))
			points = append(points, p)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}

		// Each bound may fall one or two values outside the domain, and hi
		// may sit below lo.
		var ranges [][2]int64
		inverted := false
		for _, r := range [][2]uint8{{lo0Raw, width0}, {lo1Raw, width1}} {
			lo := int64(r[0])%(dom+4) - 2
			hi := lo + int64(r[1])%(dom+4) - 2
			ranges = append(ranges, [2]int64{lo, hi})
			inverted = inverted || hi < lo
		}
		cells := g.CellsCovering(ranges)
		if inverted {
			if cells != nil {
				t.Fatalf("inverted range %v covered cells %v", ranges, cells)
			}
			return
		}
		seen := map[int]bool{}
		for _, c := range cells {
			if c < 0 || c >= g.NumCells() || seen[c] {
				t.Fatalf("range %v: cell %d out of range or repeated in %v", ranges, c, cells)
			}
			seen[c] = true
			for d, coord := range g.Coord(c) {
				lo, hi := g.intervalBounds(d, coord) // hi exclusive
				if coord == 0 {
					lo = math.MinInt64
				}
				if coord == g.Dims()[d]-1 {
					hi = math.MaxInt64
				}
				if ranges[d][1] < lo || ranges[d][0] >= hi {
					t.Fatalf("range %v: cell %d's interval [%d, %d) of dim %d misses it", ranges, c, lo, hi, d)
				}
			}
		}
		for id, p := range points {
			if p[0] < ranges[0][0] || p[0] > ranges[0][1] || p[1] < ranges[1][0] || p[1] > ranges[1][1] {
				continue
			}
			if c := g.cellOf(p); !seen[c] {
				t.Fatalf("range %v: point %d %v in cell %d, not covered by %v", ranges, id, p, c, cells)
			}
		}
	})
}
