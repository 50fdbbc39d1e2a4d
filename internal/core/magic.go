package core

import (
	"fmt"

	"repro/internal/gridfile"
	"repro/internal/storage"
)

// MagicOptions tunes the MAGIC construction; the zero value gives the
// paper's algorithm. The ablation flags exist for the design-choice benches
// DESIGN.md calls out.
type MagicOptions struct {
	// SplitWeights overrides the per-attribute splitting frequencies
	// (default: the plan's Mi-proportional weights).
	SplitWeights map[int]float64
	// RoundRobinAssign replaces the Mi-aware tiled assignment with naive
	// round-robin over cells (ablation: shows why slice-aware assignment
	// matters).
	RoundRobinAssign bool
	// DisableRebalance skips the Section 4 hill-climbing rebalancing
	// (ablation: shows the skew correlated data causes without it).
	DisableRebalance bool
	// RebalanceMaxIters bounds the hill climber (default 200).
	RebalanceMaxIters int
	// MaxCells overrides the directory-size cap (default
	// max(16*P, 4*Cardinality/FC); see gridfile.SetMaxCells for why highly
	// correlated data needs one).
	MaxCells int
}

// MAGICPlacement is the Multi-Attribute GrId deClustering strategy
// (Section 3) applied to a relation.
type MAGICPlacement struct {
	attrs  []int // grid dimension d partitions attribute attrs[d]
	dimOf  map[int]int
	grid   *gridfile.Grid
	owners []int // flat cell -> processor
	counts []int // flat cell -> tuples
	p      int
	plan   Plan
	swaps  int // rebalancing swaps applied
}

// BuildMAGIC declusters the relation on the given partitioning attributes
// for the given workload: it runs the planning model, builds the grid
// directory via the grid file insertion phase, assigns directory entries to
// processors, and rebalances. opts may be nil for defaults.
func BuildMAGIC(rel *storage.Relation, attrs []int, queries []QuerySpec, pp PlanParams, opts *MagicOptions) (*MAGICPlacement, error) {
	if opts == nil {
		opts = &MagicOptions{}
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("core: MAGIC needs at least one partitioning attribute")
	}
	seen := map[int]bool{}
	for _, a := range attrs {
		if seen[a] {
			return nil, fmt.Errorf("core: duplicate partitioning attribute %s", storage.AttrName(a))
		}
		seen[a] = true
	}
	if pp.Cardinality != rel.Cardinality() {
		return nil, fmt.Errorf("core: plan cardinality %d != relation cardinality %d",
			pp.Cardinality, rel.Cardinality())
	}
	plan, err := ComputePlan(queries, pp)
	if err != nil {
		return nil, err
	}

	// Splitting frequencies per grid dimension.
	weights := make([]float64, len(attrs))
	src := plan.SplitWeights
	if opts.SplitWeights != nil {
		src = opts.SplitWeights
	}
	var sum float64
	for i, a := range attrs {
		weights[i] = src[a]
		sum += weights[i]
	}
	if sum <= 0 {
		return nil, fmt.Errorf("core: no positive splitting weight for attributes %v "+
			"(does the workload reference any partitioning attribute?)", attrs)
	}

	// Grid file insertion phase (Section 3.3).
	grid := gridfile.New(plan.FC, weights, boundsOf(rel, attrs))
	maxCells := opts.MaxCells
	if maxCells <= 0 {
		maxCells = 4 * (pp.Cardinality/plan.FC + 1)
		if floor := 16 * pp.Processors; maxCells < floor {
			maxCells = floor
		}
	}
	grid.SetMaxCells(maxCells)
	// Insert in a scrambled (but deterministic) order: relations arrive
	// sorted on the clustered attribute, and feeding sorted data to the
	// grid file front-loads all directory refinement into the low region —
	// once the directory-size cap is reached, the unrefined tail would
	// collapse into a handful of giant fragments. A coprime stride visits
	// the relation in a spatially uniform order instead. It strides over a
	// flat copy of the partitioning attributes (k values per tuple, read in
	// relation order), not over the wide tuples themselves.
	n, k := len(rel.Tuples), len(attrs)
	points := make([]int64, n*k)
	for j := range rel.Tuples {
		for d, a := range attrs {
			points[j*k+d] = rel.Tuples[j].Attrs[a]
		}
	}
	grid.Grow(n)
	stride := coprimeStride(n)
	for i := 0; i < n; i++ {
		j := (i * stride) % n
		grid.Insert(points[j*k:(j+1)*k], i)
	}

	// Assignment (Section 3.4).
	dims := grid.Dims()
	counts := make([]int, grid.NumCells())
	for flat := range counts {
		counts[flat] = grid.CellCount(flat)
	}
	var owners []int
	if opts.RoundRobinAssign {
		owners = make([]int, grid.NumCells())
		for i := range owners {
			owners[i] = i % pp.Processors
		}
	} else {
		mi := make([]float64, len(attrs))
		for d, a := range attrs {
			mi[d] = plan.Mi[a]
			if mi[d] == 0 {
				mi[d] = 1
			}
		}
		owners = AssignOwnersBalanced(dims, pp.Processors, mi, counts)
	}

	// Rebalancing (Section 4).
	m := &MAGICPlacement{
		attrs:  append([]int(nil), attrs...),
		dimOf:  make(map[int]int, len(attrs)),
		grid:   grid,
		owners: owners,
		counts: counts,
		p:      pp.Processors,
		plan:   plan,
	}
	for d, a := range attrs {
		m.dimOf[a] = d
	}
	if !opts.DisableRebalance {
		iters := opts.RebalanceMaxIters
		if iters <= 0 {
			iters = 200
		}
		m.swaps = Rebalance(m.owners, dims, counts, pp.Processors, iters)
	}
	return m, nil
}

// coprimeStride returns a stride near n/φ (the golden-ratio fraction, which
// distributes visits maximally uniformly) that is coprime to n, so
// (i*stride) mod n enumerates 0..n-1 exactly once.
func coprimeStride(n int) int {
	if n <= 2 {
		return 1
	}
	s := int(float64(n) * 0.6180339887)
	if s < 1 {
		s = 1
	}
	for ; gcd(s, n) != 1; s++ {
	}
	return s
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Name implements Placement.
func (m *MAGICPlacement) Name() string { return "magic" }

// Processors implements Placement.
func (m *MAGICPlacement) Processors() int { return m.p }

// Attrs reports the partitioning attributes in grid-dimension order.
func (m *MAGICPlacement) Attrs() []int { return append([]int(nil), m.attrs...) }

// Plan reports the planning-model output the construction used.
func (m *MAGICPlacement) Plan() Plan { return m.plan }

// Grid exposes the underlying directory (read-only use).
func (m *MAGICPlacement) Grid() *gridfile.Grid { return m.grid }

// Dims reports the directory shape (Ni per dimension).
func (m *MAGICPlacement) Dims() []int { return m.grid.Dims() }

// RebalanceSwaps reports how many slice swaps the rebalancer applied.
func (m *MAGICPlacement) RebalanceSwaps() int { return m.swaps }

// Owners returns the flat cell -> processor assignment (caller must not
// mutate).
func (m *MAGICPlacement) Owners() []int { return m.owners }

// CellCounts returns the flat cell -> tuple count view (caller must not
// mutate).
func (m *MAGICPlacement) CellCounts() []int { return m.counts }

// HomeOf implements Placement: the owner of the grid cell the tuple's
// partitioning-attribute values locate to.
func (m *MAGICPlacement) HomeOf(t storage.Tuple) int {
	return m.owners[m.grid.CellOf(t.Attrs[:], m.attrs)]
}

// Route implements Placement: a predicate on a partitioning attribute maps
// to the slice of covered cells; the participants are the owners of the
// non-empty covered cells (empty entries are pruned, Section 4), and every
// covered entry counts toward the directory-search cost.
func (m *MAGICPlacement) Route(pred Predicate) Route {
	return m.RouteConjunct([]Predicate{pred})
}

// RouteConjunct localizes a conjunction of single-attribute predicates
// (pred1 AND pred2 AND ...). This is the natural extension the grid
// directory enables beyond the paper's single-attribute workload: a
// conjunction over multiple partitioning attributes maps to the
// intersection of their slices — a small hyper-rectangle of cells — so an
// exact match on every partitioning attribute localizes to a single
// processor. Predicates on non-partitioning attributes force all
// processors; repeated predicates on one attribute intersect their ranges.
func (m *MAGICPlacement) RouteConjunct(preds []Predicate) Route {
	// The per-dimension ranges and the set of owners seen live on the
	// stack for up to 4 dimensions and 256 processors, so a route
	// allocates only its Participants.
	var rangeBuf [4][2]int64
	ranges := rangeBuf[:0]
	for dd := range m.attrs {
		lo, hi := m.grid.Bounds(dd)
		ranges = append(ranges, [2]int64{lo, hi})
	}
	constrained := false
	for _, pred := range preds {
		d, ok := m.dimOf[pred.Attr]
		if !ok {
			return Route{Participants: allProcessors(m.p)}
		}
		if pred.Lo > ranges[d][0] {
			ranges[d][0] = pred.Lo
		}
		if pred.Hi < ranges[d][1] {
			ranges[d][1] = pred.Hi
		}
		constrained = true
	}
	if !constrained {
		return Route{Participants: allProcessors(m.p)}
	}
	var seenBuf [4]uint64
	seen := seenBuf[:]
	if words := (m.p + 63) / 64; words > len(seen) {
		seen = make([]uint64, words)
	}
	searched, nparts := 0, 0
	m.grid.EachCovering(ranges, func(c int) {
		searched++
		if o := m.owners[c]; m.counts[c] > 0 && seen[o/64]&(1<<(o%64)) == 0 {
			seen[o/64] |= 1 << (o % 64)
			nparts++
		}
	})
	var parts []int
	if nparts > 0 {
		parts = make([]int, 0, nparts)
		for o := 0; o < m.p; o++ {
			if seen[o/64]&(1<<(o%64)) != 0 {
				parts = append(parts, o)
			}
		}
	}
	return Route{Participants: parts, EntriesSearched: searched}
}
