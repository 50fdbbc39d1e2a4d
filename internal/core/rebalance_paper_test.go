package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gamma"
	"repro/internal/storage"
	"repro/internal/workload"
)

// paperDirectory builds figure figID's MAGIC directory the way
// experiments.BuildPlacement does at the given scale (32 processors,
// seed 1), stopping before the Section 4 rebalancing. It also returns the
// relation, so callers can build the rebalanced placement for comparison.
func paperDirectory(tb testing.TB, figID string, card int) (dims, counts, owners []int, rel *storage.Relation) {
	tb.Helper()
	fig, err := experiments.FigureByID(figID)
	if err != nil {
		tb.Fatal(err)
	}
	window := 0
	if fig.Correlation == experiments.HighCorrelation {
		window = card / 1000
	}
	rel = storage.GenerateWisconsin(storage.GenSpec{Cardinality: card, CorrelationWindow: window, Seed: 1})
	cfg := gamma.DefaultConfig()
	m, err := core.BuildMAGIC(rel, []int{storage.Unique1, storage.Unique2},
		workload.EstimateSpecs(fig.Mix(card), card, cfg.HW, cfg.Costs),
		workload.PlanParamsFor(card, 32, cfg.Costs),
		&core.MagicOptions{DisableRebalance: true})
	if err != nil {
		tb.Fatal(err)
	}
	return m.Dims(), m.CellCounts(), append([]int(nil), m.Owners()...), rel
}

// The incremental scorer must leave the paper's own directories exactly
// as the reference does: same owners, same swap count, and the same
// placement experiments.BuildPlacement produces (figs 10a and 10b at paper
// scale are the benchmark's setup-paper directories, with 16 and 75 swaps).
func TestRebalanceMatchesReferenceOnPaperDirectories(t *testing.T) {
	cases := []struct {
		fig   string
		card  int
		swaps int // -1: not pinned
	}{
		{"8a", 20000, -1},
		{"8b", 20000, -1},
		{"12b", 20000, -1},
		{"10a", 100000, 16},
		{"10b", 100000, 75},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%d", c.fig, c.card), func(t *testing.T) {
			if c.card > 20000 && testing.Short() {
				t.Skip("paper scale")
			}
			dims, counts, owners, rel := paperDirectory(t, c.fig, c.card)
			want := append([]int(nil), owners...)
			wantSwaps := core.RebalanceReference(want, dims, counts, 32, 200)
			got := append([]int(nil), owners...)
			gotSwaps := core.Rebalance(got, dims, counts, 32, 200)
			if gotSwaps != wantSwaps || !reflect.DeepEqual(got, want) {
				t.Fatalf("directory %v: Rebalance made %d swaps, reference %d (owners equal: %v)",
					dims, gotSwaps, wantSwaps, reflect.DeepEqual(got, want))
			}
			if c.swaps >= 0 && gotSwaps != c.swaps {
				t.Fatalf("%d swaps, want %d", gotSwaps, c.swaps)
			}
			fig, _ := experiments.FigureByID(c.fig)
			pl, err := experiments.BuildPlacement(experiments.StrategyMAGIC, rel, fig.Mix(c.card),
				experiments.Options{Cardinality: c.card, Processors: 32})
			if err != nil {
				t.Fatal(err)
			}
			if m := pl.(*core.MAGICPlacement); m.RebalanceSwaps() != wantSwaps || !reflect.DeepEqual(m.Owners(), want) {
				t.Fatal("BuildPlacement's MAGIC differs from the reference rebalance")
			}
		})
	}
}

// BenchmarkRebalancePaper times one full rebalance of the paper-scale fig
// 10b (69×175) and fig 8a (236×242) directories with the incremental
// scorer and with the reference it replaced.
func BenchmarkRebalancePaper(b *testing.B) {
	for _, fig := range []string{"10b", "8a"} {
		dims, counts, owners, _ := paperDirectory(b, fig, 100000)
		for _, impl := range []struct {
			name string
			fn   func(owners, dims, counts []int, p, maxIters int) int
		}{{"incremental", core.Rebalance}, {"reference", core.RebalanceReference}} {
			b.Run(fig+"/"+impl.name, func(b *testing.B) {
				work := make([]int, len(owners))
				for i := 0; i < b.N; i++ {
					copy(work, owners)
					impl.fn(work, dims, counts, 32, 200)
				}
			})
		}
	}
}
