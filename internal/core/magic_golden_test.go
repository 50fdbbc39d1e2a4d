package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gridfile"
	"repro/internal/storage"
)

var updateDirectories = flag.Bool("update-directories", false,
	"rewrite testdata/magic_directories.golden from the current MAGIC build")

const magicDirectoriesGolden = "testdata/magic_directories.golden"

// TestMAGICDirectoriesGolden pins the MAGIC directories
// experiments.BuildPlacement builds for five figures: each directory's
// shape, linear scales, overflow and swap counts, and a SHA-256 over its
// per-cell counts, its owners and every cell's tuple ids in order. Any
// change to the grid file's split sequence, its cell order or the order
// of ids within a cell shows here. Regenerate with -update-directories
// only for a change that means to alter the placement.
func TestMAGICDirectoriesGolden(t *testing.T) {
	cases := []struct {
		fig  string
		card int
	}{
		{"8a", 20000}, {"8b", 20000}, {"12b", 20000}, {"10a", 100000}, {"10b", 100000},
	}
	want, err := os.ReadFile(magicDirectoriesGolden)
	if err != nil && !*updateDirectories {
		t.Fatal(err)
	}
	var all strings.Builder
	for _, c := range cases {
		if c.card > 20000 && testing.Short() {
			continue
		}
		fig, err := experiments.FigureByID(c.fig)
		if err != nil {
			t.Fatal(err)
		}
		window := 0
		if fig.Correlation == experiments.HighCorrelation {
			window = c.card / 1000
		}
		rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: c.card, CorrelationWindow: window, Seed: 1})
		pl, err := experiments.BuildPlacement(experiments.StrategyMAGIC, rel, fig.Mix(c.card),
			experiments.Options{Cardinality: c.card, Processors: 32})
		if err != nil {
			t.Fatal(err)
		}
		m := pl.(*core.MAGICPlacement)
		g := m.Grid()
		var b strings.Builder
		fmt.Fprintf(&b, "fig %s card %d dims %v overflow %d swaps %d\n",
			c.fig, c.card, m.Dims(), g.OverflowCells(), m.RebalanceSwaps())
		for d := 0; d < g.K(); d++ {
			fmt.Fprintf(&b, "  scale %d %v\n", d, gridScale(g, d))
		}
		fmt.Fprintf(&b, "  sha256 %x\n", directoryDigest(g, m.CellCounts(), m.Owners()))
		if !*updateDirectories && !strings.Contains(string(want), b.String()) {
			t.Errorf("fig %s at %d tuples differs from %s; got:\n%s", c.fig, c.card, magicDirectoriesGolden, b.String())
		}
		all.WriteString(b.String())
	}
	if *updateDirectories {
		if testing.Short() {
			t.Fatal("-update-directories needs the paper-scale cases; drop -short")
		}
		if err := os.WriteFile(magicDirectoriesGolden, []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if !testing.Short() && all.String() != string(want) {
		t.Fatalf("%s holds directories this test does not build:\n%s", magicDirectoriesGolden, want)
	}
}

// gridScale recovers dimension d's interior split points through the
// public IntervalRange: split point i is the least value whose interval
// index reaches i.
func gridScale(g *gridfile.Grid, d int) []int64 {
	lo, hi := g.Bounds(d)
	out := make([]int64, g.Dims()[d]-1)
	for i := range out {
		j := sort.Search(int(hi-lo+1), func(j int) bool {
			from, _ := g.IntervalRange(d, lo+int64(j), lo+int64(j))
			return from > i
		})
		out[i] = lo + int64(j)
	}
	return out
}

// directoryDigest hashes the per-cell counts, then the owners, then each
// cell's id list prefixed by its length, every value a little-endian
// 64-bit integer.
func directoryDigest(g *gridfile.Grid, counts, owners []int) [sha256.Size]byte {
	var buf []byte
	put := func(v int) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	for _, c := range counts {
		put(c)
	}
	for _, o := range owners {
		put(o)
	}
	for flat := 0; flat < g.NumCells(); flat++ {
		ids := g.Cell(flat)
		put(len(ids))
		for _, id := range ids {
			put(id)
		}
	}
	return sha256.Sum256(buf)
}
