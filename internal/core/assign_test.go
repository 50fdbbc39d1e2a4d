package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestAssignOwnersRoundRobinFor1D(t *testing.T) {
	owners := AssignOwners([]int{10}, 4, []float64{2})
	for i, o := range owners {
		if o != i%4 {
			t.Fatalf("1D assignment not round-robin: owners[%d] = %d", i, o)
		}
	}
}

func TestAssignOwnersSliceDistinctMatchesRadices(t *testing.T) {
	// P=32, Mi targets (2, 9): the best factorization is radices (16, 2),
	// so dimension-0 queries meet 32/16 = 2 processors and dimension-1
	// queries meet 32/2 = 16 — the exact counts Section 7.2 reports.
	dims := []int{23, 193}
	owners := AssignOwners(dims, 32, []float64{2, 9})
	d0 := SliceDistinct(owners, dims, 0)
	for i, n := range d0 {
		if n != 2 {
			t.Fatalf("slice %d of dim 0 has %d distinct processors, want 2", i, n)
		}
	}
	d1 := SliceDistinct(owners, dims, 1)
	for i, n := range d1 {
		if n != 16 {
			t.Fatalf("slice %d of dim 1 has %d distinct processors, want 16", i, n)
		}
	}
}

func TestAssignOwnersModerateLowMirrors(t *testing.T) {
	// Section 7.3 mirror image: Mi = (9, 2) -> QA meets 16, QB meets 2.
	dims := []int{193, 23}
	owners := AssignOwners(dims, 32, []float64{9, 2})
	if n := SliceDistinct(owners, dims, 0)[0]; n != 16 {
		t.Fatalf("dim-0 slices have %d distinct, want 16", n)
	}
	if n := SliceDistinct(owners, dims, 1)[0]; n != 2 {
		t.Fatalf("dim-1 slices have %d distinct, want 2", n)
	}
}

func TestAssignOwnersUsesAllProcessorsEvenly(t *testing.T) {
	dims := []int{62, 61}
	owners := AssignOwners(dims, 32, []float64{5, 5})
	counts := make([]int, 32)
	for _, o := range owners {
		if o < 0 || o >= 32 {
			t.Fatalf("owner %d out of range", o)
		}
		counts[o]++
	}
	total := 62 * 61
	mean := float64(total) / 32
	for p, c := range counts {
		if float64(c) < 0.85*mean || float64(c) > 1.15*mean {
			t.Fatalf("processor %d owns %d cells (ideal %.0f)", p, c, mean)
		}
	}
}

// Property: for any radix choice, the number of distinct processors in every
// slice of dimension d is min(dims excluding d product, P/A_d); in
// particular it never exceeds P and all slices of a dimension agree.
func TestAssignOwnersSliceUniformityProperty(t *testing.T) {
	check := func(d0, d1 uint8, miA, miB uint8) bool {
		dims := []int{int(d0%20) + 2, int(d1%20) + 2}
		mi := []float64{float64(miA%8) + 1, float64(miB%8) + 1}
		owners := AssignOwners(dims, 16, mi)
		for d := 0; d < 2; d++ {
			dist := SliceDistinct(owners, dims, d)
			for _, n := range dist[1:] {
				if n != dist[0] {
					return false
				}
			}
			if dist[0] > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestChooseRadicesProductAlwaysP(t *testing.T) {
	for _, p := range []int{2, 6, 16, 32, 30} {
		for _, mi := range [][]float64{{1, 1}, {9, 2}, {32, 32}, {0.5, 100}} {
			r := chooseRadices(2, p, mi)
			if r[0]*r[1] != p {
				t.Fatalf("radices %v for P=%d", r, p)
			}
		}
	}
}

func TestChooseRadicesThreeDims(t *testing.T) {
	r := chooseRadices(3, 32, []float64{2, 4, 4})
	if r[0]*r[1]*r[2] != 32 {
		t.Fatalf("radices %v", r)
	}
}

func TestProcessorLoadsAndSpread(t *testing.T) {
	owners := []int{0, 1, 0, 1}
	counts := []int{10, 20, 30, 40}
	loads := ProcessorLoads(owners, counts, 2)
	if loads[0] != 40 || loads[1] != 60 {
		t.Fatalf("loads = %v", loads)
	}
	min, max, mean := LoadSpread(owners, counts, 2)
	if min != 40 || max != 60 || mean != 50 {
		t.Fatalf("spread = %d/%d/%g", min, max, mean)
	}
}

// Diagonal (perfectly correlated) data on a square grid: the tiled
// assignment leaves many processors empty; the Section 4 hill climber must
// bring the spread down dramatically. The paper reports <= 20% difference
// between any two processors for the worst case on 32 processors.
func TestRebalanceWorstCaseSpread(t *testing.T) {
	const n = 128 // 128x128 grid, diagonal occupancy
	dims := []int{n, n}
	counts := make([]int, n*n)
	for i := 0; i < n; i++ {
		counts[i*n+i] = 25 // all tuples on the diagonal
	}
	owners := AssignOwners(dims, 32, []float64{5, 5})
	minBefore, maxBefore, _ := LoadSpread(owners, counts, 32)
	if minBefore != 0 {
		t.Fatalf("test premise wrong: diagonal should leave empty processors, min=%d", minBefore)
	}
	swaps := Rebalance(owners, dims, counts, 32, 400)
	if swaps == 0 {
		t.Fatal("rebalance made no swaps on skewed data")
	}
	min, max, _ := LoadSpread(owners, counts, 32)
	if min == 0 {
		t.Fatalf("processors still empty after rebalance (max=%d)", max)
	}
	spread := float64(max-min) / float64(max)
	if spread > 0.30 {
		t.Fatalf("spread after rebalance = %.0f%% (min=%d max=%d), paper achieves ~20%%",
			spread*100, min, max)
	}
	if maxBefore < max {
		t.Fatal("rebalance increased the maximum load")
	}
}

// Swapping two slices of a dimension permutes that dimension's per-slice
// distinct-processor counts and leaves every other dimension's unchanged, so
// each dimension's multiset of counts must survive rebalancing (the property
// the paper relies on).
func TestRebalancePreservesSliceDistinct(t *testing.T) {
	dims := []int{16, 16}
	counts := make([]int, 16*16)
	for i := 0; i < 16; i++ {
		counts[i*16+i] = 50
		counts[i*16+(i+1)%16] = 25
	}
	owners := AssignOwners(dims, 8, []float64{3, 3})
	multiset := func(d int) []int {
		xs := SliceDistinct(owners, dims, d)
		sort.Ints(xs)
		return xs
	}
	before := [][]int{multiset(0), multiset(1)}
	if swaps := Rebalance(owners, dims, counts, 8, 100); swaps == 0 {
		t.Fatal("test premise wrong: no swaps applied")
	}
	for d := range dims {
		if after := multiset(d); !reflect.DeepEqual(before[d], after) {
			t.Fatalf("dimension %d: sorted per-slice distinct counts %v before, %v after",
				d, before[d], after)
		}
	}
}

func TestRebalanceUniformDataIsStable(t *testing.T) {
	dims := []int{8, 8}
	counts := make([]int, 64)
	for i := range counts {
		counts[i] = 10
	}
	owners := AssignOwners(dims, 8, []float64{3, 3})
	if swaps := Rebalance(owners, dims, counts, 8, 50); swaps != 0 {
		t.Fatalf("perfectly balanced input triggered %d swaps", swaps)
	}
}

// The rebalanced maximum load should approach the theoretical lower bound
// ceil(total/P) on moderately skewed inputs — the evaluation methodology the
// paper cites against [GMSY90]'s bound.
func TestRebalanceApproachesLowerBound(t *testing.T) {
	dims := []int{32, 32}
	counts := make([]int, 32*32)
	total := 0
	for i := range counts {
		counts[i] = (i % 7) * 3 // mild skew
		total += counts[i]
	}
	owners := AssignOwners(dims, 16, []float64{4, 4})
	Rebalance(owners, dims, counts, 16, 200)
	_, max, _ := LoadSpread(owners, counts, 16)
	bound := (total + 15) / 16
	if float64(max) > 1.3*float64(bound) {
		t.Fatalf("max load %d vs lower bound %d", max, bound)
	}
}

func TestAssignOwnersValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { AssignOwners(nil, 4, nil) },
		func() { AssignOwners([]int{4}, 0, []float64{1}) },
		func() { AssignOwners([]int{0, 4}, 4, []float64{1, 1}) },
		func() { AssignOwners([]int{4, 4}, 4, []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: AssignOwners accepted bad input", i)
				}
			}()
			fn()
		}()
	}
}

func TestRebalanceMismatchedLengthsPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { Rebalance([]int{0, 1}, []int{2}, []int{1}, 2, 10) },
		func() { Rebalance([]int{0, 1}, []int{3}, []int{1, 1}, 2, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: mismatched lengths did not panic", i)
				}
			}()
			fn()
		}()
	}
}

// The swap table holds each pair's per-processor load change in an int32,
// exact while the absolute cell counts sum below 2^30: Rebalance accepts
// a directory just under the bound, scoring it like the reference, and
// panics at it, negative counts included.
func TestRebalanceCountBound(t *testing.T) {
	under := []int{1 << 29, 1<<29 - 1, 0, 0}
	checkRebalanceMatchesReference(t, []int{2, 2}, 2, under, []int{0, 0, 0, 1}, 10)
	for i, counts := range [][]int{
		{1 << 29, 1 << 29, 0, 0},
		{1 << 29, -(1 << 29), 0, 0},
		{0, 0, 0, 1 << 30},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: counts %v did not panic", i, counts)
				}
			}()
			Rebalance([]int{0, 0, 0, 1}, []int{2, 2}, counts, 2, 10)
		}()
	}
}

// rebalanceReference is the original, non-incremental Rebalance: every
// iteration rescans every slice pair of every dimension against every cell.
// Rebalance must reproduce its swap sequence exactly.
func rebalanceReference(owners []int, dims []int, counts []int, p, maxIters int) int {
	if len(owners) != len(counts) {
		panic("core: owners/counts length mismatch")
	}
	loads := ProcessorLoads(owners, counts, p)

	// Per-dimension slice views: sliceCells[d][i] lists the flat indices of
	// slice i of dimension d, in a fixed "rest" order shared by all slices
	// of d so that position r in two slices refers to the same rest-coord.
	sliceCells := make([][][]int, len(dims))
	for d := range dims {
		sliceCells[d] = make([][]int, dims[d])
	}
	forEachCell(dims, func(flat int, coord []int) {
		for d := range dims {
			sliceCells[d][coord[d]] = append(sliceCells[d][coord[d]], flat)
		}
	})

	delta := make([]int64, p)
	var touched []int
	swaps := 0
	for iter := 0; iter < maxIters; iter++ {
		var bestPhi int64 // must be strictly negative to accept
		bestD, bestI, bestJ := -1, 0, 0
		for d := range dims {
			for i := 0; i < dims[d]; i++ {
				for j := i + 1; j < dims[d]; j++ {
					si, sj := sliceCells[d][i], sliceCells[d][j]
					touched = touched[:0]
					for r := range si {
						ci, cj := counts[si[r]], counts[sj[r]]
						if ci == cj {
							continue
						}
						oi, oj := owners[si[r]], owners[sj[r]]
						if delta[oi] == 0 {
							touched = append(touched, oi)
						}
						delta[oi] += int64(cj - ci)
						if delta[oj] == 0 {
							touched = append(touched, oj)
						}
						delta[oj] += int64(ci - cj)
					}
					var phi int64
					for _, q := range touched {
						l := int64(loads[q])
						phi += (l+delta[q])*(l+delta[q]) - l*l
						delta[q] = 0
					}
					if phi < bestPhi {
						bestPhi, bestD, bestI, bestJ = phi, d, i, j
					}
				}
			}
		}
		if bestD == -1 {
			break // no swap improves the balance: local optimum
		}
		si, sj := sliceCells[bestD][bestI], sliceCells[bestD][bestJ]
		for r := range si {
			oi, oj := owners[si[r]], owners[sj[r]]
			loads[oi] += counts[sj[r]] - counts[si[r]]
			loads[oj] += counts[si[r]] - counts[sj[r]]
			owners[si[r]], owners[sj[r]] = oj, oi
		}
		swaps++
	}
	return swaps
}

// checkRebalanceMatchesReference runs Rebalance and rebalanceReference on
// copies of owners and fails unless both apply the same number of swaps
// and leave identical owners.
func checkRebalanceMatchesReference(t *testing.T, dims []int, p int, counts, owners []int, maxIters int) int {
	t.Helper()
	got := append([]int(nil), owners...)
	want := append([]int(nil), owners...)
	gotSwaps := Rebalance(got, dims, counts, p, maxIters)
	wantSwaps := rebalanceReference(want, dims, counts, p, maxIters)
	if gotSwaps != wantSwaps || !reflect.DeepEqual(got, want) {
		t.Fatalf("dims %v p=%d maxIters=%d counts %v owners %v: Rebalance made %d swaps -> %v, reference %d -> %v",
			dims, p, maxIters, counts, owners, gotSwaps, got, wantSwaps, want)
	}
	return gotSwaps
}

// initialOwners builds the assignment a property test starts from, by
// mode: the tiled and skew-aware tilings BuildMAGIC uses, the
// RoundRobinAssign ablation's i mod p, or arbitrary owners drawn with pick
// (which may break the tiling's slice-distinct structure).
func initialOwners(mode int, dims []int, p int, mi []float64, counts []int, pick func(n int) int) []int {
	switch mode % 4 {
	case 0:
		return AssignOwners(dims, p, mi)
	case 1:
		return AssignOwnersBalanced(dims, p, mi, counts)
	}
	owners := make([]int, len(counts))
	for i := range owners {
		if mode%4 == 2 {
			owners[i] = i % p
		} else {
			owners[i] = pick(p)
		}
	}
	return owners
}

// Property: the incremental scorer reproduces the reference swap sequence
// on random 1-, 2- and 3-D directories, including the edge cases where
// the table degenerates: no iterations, a single processor, uniform
// counts, and single-slice dimensions (no pairs to score). The trial index
// cycles through every combination of dimensionality, count pattern, owner
// mode and iteration bound.
func TestRebalanceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	swaps := 0
	for trial := 0; trial < 768; trial++ {
		dims := make([]int, 1+trial%3)
		mi := make([]float64, len(dims))
		cells := 1
		for d := range dims {
			dims[d] = 1 + rng.Intn(12)
			if trial%5 == 0 && d == 0 {
				dims[d] = 1
			}
			mi[d] = float64(1 + rng.Intn(6))
			cells *= dims[d]
		}
		p := []int{1, 2, 3, 4, 8, 16}[rng.Intn(6)]
		counts := make([]int, cells)
		switch (trial / 3) % 4 {
		case 0: // all equal: no swap can change a load
			for i := range counts {
				counts[i] = 7
			}
		case 1: // sparse, diagonal-like skew
			for i := range counts {
				if rng.Intn(4) == 0 {
					counts[i] = rng.Intn(200)
				}
			}
		default:
			for i := range counts {
				counts[i] = rng.Intn(60)
			}
		}
		owners := initialOwners(trial/12, dims, p, mi, counts, rng.Intn)
		maxIters := []int{0, 1, 2, 200}[(trial/48)%4]
		swaps += checkRebalanceMatchesReference(t, dims, p, counts, owners, maxIters)
	}
	if swaps < 300 {
		t.Fatalf("only %d swaps over all trials: the inputs barely exercise the climber", swaps)
	}
}

// FuzzRebalance checks the incremental scorer against the reference on
// directories decoded from the fuzz input: shape holds up to three
// dimension sizes (1-9 slices) whose high nibbles give the planned Mi,
// mode picks the initial assignment, and data supplies cell counts and,
// for arbitrary owners, the owner choices.
func FuzzRebalance(f *testing.F) {
	f.Add([]byte{3, 4}, uint8(4), uint8(200), uint8(0), []byte{5, 0, 9, 1})
	f.Add([]byte{8}, uint8(3), uint8(1), uint8(2), []byte{0, 40, 0, 0, 3})
	f.Fuzz(func(t *testing.T, shape []byte, p, iters, mode uint8, data []byte) {
		if len(shape) == 0 || len(shape) > 3 {
			return
		}
		dims := make([]int, len(shape))
		mi := make([]float64, len(shape))
		cells := 1
		for d, b := range shape {
			dims[d] = 1 + int(b&0xf)%9
			mi[d] = float64(1 + b>>4)
			cells *= dims[d]
		}
		procs := 1 + int(p)%16
		counts := make([]int, cells)
		next := 0
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			next++
			return int(data[next%len(data)]) % n
		}
		for i := range counts {
			counts[i] = pick(256)
		}
		owners := initialOwners(int(mode), dims, procs, mi, counts, pick)
		checkRebalanceMatchesReference(t, dims, procs, counts, owners, int(iters))
	})
}
