// Berdwalkthrough replays the worked example of Section 2 of the paper
// (Figures 1–3): relation R with two attributes A and B and a cardinality
// of six tuples is range declustered on the primary attribute A over three
// processors, an auxiliary relation IndexB is formed from attribute B's
// values with the home processor of each original tuple, and IndexB is
// itself range partitioned on B. The two queries of the running example —
// "retrieve R.all where R.A < 50" and "retrieve R.all where R.B < 50" —
// are then routed exactly as the paper describes.
//
// Run with:
//
//	go run ./examples/berdwalkthrough
package main

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/storage"
)

func main() {
	// Figure 1's relation R: six tuples over attributes A and B.
	rows := []struct{ a, b int64 }{
		{1, 103}, {50, 10}, // processor 1: A in 0-99
		{105, 250}, {113, 15}, // processor 2: A in 100-199
		{250, 212}, {270, 156}, // processor 3: A in 200-299
	}
	tuples := make([]storage.Tuple, len(rows))
	for i, r := range rows {
		tuples[i] = storage.Tuple{TID: int64(i)}
		tuples[i].Attrs[storage.Unique1] = r.a // A
		tuples[i].Attrs[storage.Unique2] = r.b // B
	}
	rel := &storage.Relation{Name: "R", Tuples: tuples}

	// Range partition on A with the paper's boundaries 100 and 200, and
	// the auxiliary relation on B with boundaries matching Figure 3
	// (IndexB entries 10,15 -> processor 1; 103,156 -> 2; 212,250 -> 3).
	berd := core.NewBERD(
		storage.Unique1, []int64{100, 200},
		map[int][]int64{storage.Unique2: {100, 200}},
		3,
	)

	fmt.Println("Figure 1 — range partition R on attribute A:")
	byProc := map[int][]storage.Tuple{}
	homes := make([]int32, len(rel.Tuples))
	for i, t := range rel.Tuples {
		p := berd.HomeOf(&t)
		homes[i] = int32(p)
		byProc[p] = append(byProc[p], t)
	}
	for p := 0; p < 3; p++ {
		fmt.Printf("  processor %d:", p+1)
		for _, t := range byProc[p] {
			fmt.Printf("  (A=%d, B=%d)", t.Attrs[storage.Unique1], t.Attrs[storage.Unique2])
		}
		fmt.Println()
	}

	fmt.Println("\nFigure 2 — auxiliary relation IndexB (B value -> home processor):")
	aux := berd.AuxAssignments(rel, storage.Unique2, homes)
	var entries []storage.AuxEntry
	for _, es := range aux {
		entries = append(entries, es...)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].TID < entries[j].TID })
	for _, e := range entries {
		fmt.Printf("  B=%-4d -> processor %d\n", e.Value, e.Proc+1)
	}

	fmt.Println("\nFigure 3 — IndexB range partitioned on attribute B:")
	for p := 0; p < 3; p++ {
		fmt.Printf("  processor %d holds IndexB entries:", p+1)
		var vals []int64
		for _, e := range aux[p] {
			vals = append(vals, e.Value)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, v := range vals {
			fmt.Printf("  %d", v)
		}
		fmt.Println()
	}

	// Query 1: retrieve R.all where R.A < 50 — the partitioning attribute:
	// the optimizer uses the range boundaries directly.
	q1 := core.Predicate{Attr: storage.Unique1, Lo: 0, Hi: 49}
	r1 := berd.Route(q1)
	fmt.Printf("\nquery %v -> processors %v directly (paper: processor 1)\n",
		q1, oneBased(r1.Participants))

	// Query 2: retrieve R.all where R.B < 50 — a secondary attribute: the
	// optimizer first consults IndexB, then directs the query to the
	// processors the auxiliary entries name.
	q2 := core.Predicate{Attr: storage.Unique2, Lo: 0, Hi: 49}
	r2 := berd.Route(q2)
	fmt.Printf("query %v -> consult IndexB on processors %v", q2, oneBased(r2.Aux))
	owners := map[int]bool{}
	for _, node := range r2.Aux {
		for _, e := range aux[node] {
			if e.Value >= q2.Lo && e.Value <= q2.Hi {
				owners[e.Proc] = true
			}
		}
	}
	var ps []int
	for p := range owners {
		ps = append(ps, p)
	}
	sort.Ints(ps)
	fmt.Printf(", which name processors %v (paper: processors 1 and 2)\n", oneBased(ps))
}

// oneBased renders zero-based processor ids the way the paper numbers them.
func oneBased(ps []int) []int {
	out := make([]int, len(ps))
	for i, p := range ps {
		out[i] = p + 1
	}
	return out
}
