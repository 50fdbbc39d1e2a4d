package plan

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

func pred(attr int, lo, hi int64) core.Predicate {
	return core.Predicate{Attr: attr, Lo: lo, Hi: hi}
}

// Golden forms: String and Explain are part of the API contract — CI gates
// and golden tests diff them, so changes here are breaking changes.
func TestGoldenString(t *testing.T) {
	join := NewJoin(storage.Unique1,
		NewIndexScan("wisc", pred(storage.Unique1, 5, 5), AccessNonClustered),
		NewScanWhere("trades", pred(storage.Unique2, 10, 20)))
	cases := []struct {
		node *Node
		want string
	}{
		{NewScan("wisc"), "Scan(wisc)"},
		{NewScanWhere("wisc", pred(storage.Unique2, 10, 20)),
			"Scan(wisc, 10 <= unique2 <= 20)"},
		{NewIndexScan("wisc", pred(storage.Unique1, 5, 5), AccessNonClustered),
			"IndexScan(wisc, unique1 = 5, non-clustered)"},
		{NewFilter(pred(storage.Unique1, 1, 3), NewScan("wisc")),
			"Filter(1 <= unique1 <= 3)[Scan(wisc)]"},
		{NewAggregate(AggCount, 0, NewScan("wisc")),
			"Aggregate(count(*))[Scan(wisc)]"},
		{NewAggregate(AggSum, storage.Unique2, NewScan("wisc")),
			"Aggregate(sum(unique2))[Scan(wisc)]"},
		{join, "Join(unique1)[IndexScan(wisc, unique1 = 5, non-clustered), " +
			"Scan(trades, 10 <= unique2 <= 20)]"},
	}
	for _, c := range cases {
		if got := c.node.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestGoldenExplain(t *testing.T) {
	n := NewAggregate(AggCount, 0,
		NewFilter(pred(storage.Unique2, 10, 20),
			NewIndexScan("wisc", pred(storage.Unique1, 5, 5), AccessNonClustered)))
	want := strings.Join([]string{
		"Aggregate(count(*))",
		"└─ Filter(10 <= unique2 <= 20)",
		"   └─ IndexScan(wisc, unique1 = 5, non-clustered)",
		"",
	}, "\n")
	if got := n.Explain(); got != want {
		t.Errorf("Explain() =\n%s\nwant\n%s", got, want)
	}

	join := NewJoin(storage.Unique1,
		NewScan("build"),
		NewFilter(pred(storage.Unique1, 0, 99), NewScan("probe")))
	want = strings.Join([]string{
		"Join(unique1)",
		"├─ Scan(build)",
		"└─ Filter(0 <= unique1 <= 99)",
		"   └─ Scan(probe)",
		"",
	}, "\n")
	if got := join.Explain(); got != want {
		t.Errorf("join Explain() =\n%s\nwant\n%s", got, want)
	}
}

func TestExplainDeterministic(t *testing.T) {
	n := NewJoin(storage.Unique1, NewScan("a"),
		NewFilter(pred(storage.Unique2, 1, 2), NewScan("b")))
	first := n.Explain()
	for i := 0; i < 10; i++ {
		if got := n.Explain(); got != first {
			t.Fatalf("Explain() varied across calls")
		}
	}
}

func TestValidate(t *testing.T) {
	valid := []*Node{
		NewScan("wisc"),
		NewIndexScan("wisc", pred(storage.Unique1, 1, 1), AccessNonClustered),
		NewFilter(pred(storage.Unique1, 1, 1), NewScan("wisc")),
		NewJoin(storage.Unique1, NewScan("a"), NewScan("b")),
		NewAggregate(AggMax, storage.Unique2, NewScan("wisc")),
	}
	for _, n := range valid {
		if err := n.Validate(); err != nil {
			t.Errorf("Validate(%s) = %v, want nil", n, err)
		}
	}
	invalid := []*Node{
		nil,
		{Kind: KindScan},                         // no relation
		{Kind: KindIndexScan, Relation: "wisc"},  // no predicate
		{Kind: KindFilter, Inputs: []*Node{nil}}, // nil child
		{Kind: KindFilter, Pred: pred(0, 1, 1), HasPred: true}, // arity 0
		{Kind: KindJoin, Inputs: []*Node{NewScan("a")}},        // arity 1
		NewIndexScan("wisc", pred(storage.Unique1, 1, 1), AccessSeqScan),
		{Kind: Kind(99)},
	}
	for _, n := range invalid {
		if err := n.Validate(); err == nil {
			t.Errorf("Validate(%v) = nil, want error", n)
		}
	}
}

func TestCompileSelection(t *testing.T) {
	// Filter over IndexScan on the same attribute intersects.
	n := NewFilter(pred(storage.Unique1, 10, 50),
		NewIndexScan("wisc", pred(storage.Unique1, 20, 80), AccessNonClustered))
	sel, err := CompileSelection(n)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Relation != "wisc" || sel.Pred != pred(storage.Unique1, 20, 50) ||
		sel.Access != AccessNonClustered {
		t.Fatalf("compiled %+v", sel)
	}

	// Filter over a bare Scan adopts the filter's predicate.
	sel, err = CompileSelection(NewFilter(pred(storage.Unique2, 1, 9), NewScan("wisc")))
	if err != nil {
		t.Fatal(err)
	}
	if !sel.HasPred || sel.Pred != pred(storage.Unique2, 1, 9) || sel.Access != AccessSeqScan {
		t.Fatalf("compiled %+v", sel)
	}

	// A bare Scan compiles with no predicate.
	sel, err = CompileSelection(NewScan("wisc"))
	if err != nil {
		t.Fatal(err)
	}
	if sel.HasPred {
		t.Fatalf("bare scan compiled with predicate %+v", sel)
	}

	// Cross-attribute residual filters are valid plans but not executable.
	_, err = CompileSelection(NewFilter(pred(storage.Unique2, 1, 9),
		NewIndexScan("wisc", pred(storage.Unique1, 1, 9), AccessNonClustered)))
	if err == nil || !strings.Contains(err.Error(), "single-attribute") {
		t.Fatalf("cross-attribute filter err = %v", err)
	}

	// Non-selection roots are rejected.
	if _, err = CompileSelection(NewJoin(0, NewScan("a"), NewScan("b"))); err == nil {
		t.Fatal("join compiled as selection")
	}
}

func TestAggFnString(t *testing.T) {
	for fn, want := range map[AggFn]string{
		AggCount: "count", AggSum: "sum", AggMin: "min", AggMax: "max", AggFn(9): "unknown",
	} {
		if fn.String() != want {
			t.Fatalf("AggFn(%d) = %q, want %q", fn, fn.String(), want)
		}
	}
}

// planDecoder builds a plan tree from fuzz bytes, three per node. The first
// byte picks the kind, among the five known and three unknown ones, and
// the join or aggregate attribute and function; the second the arity, 0-3,
// and the predicate; the third whether the node names a relation, whether
// it has a predicate, its access method (one of them unknown) and whether
// its last input is nil. Once the bytes run out every byte reads as zero,
// and past maxPlanDepth or maxPlanNodes every node is a leaf.
type planDecoder struct {
	data  []byte
	nodes int
}

const (
	maxPlanDepth = 6
	maxPlanNodes = 64
)

func (d *planDecoder) next() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

func (d *planDecoder) node(depth int) *Node {
	d.nodes++
	kind, shape, flags := d.next(), d.next(), d.next()
	n := &Node{
		Kind:    Kind(int(kind%8) - 1),
		Attr:    int(kind>>3) % storage.NumAttrs,
		Fn:      AggFn(kind >> 3 % 5),
		HasPred: flags&2 != 0,
		Access:  Access(flags >> 2 % 5),
	}
	if flags&1 != 0 {
		n.Relation = "wisc"
	}
	if n.HasPred {
		n.Pred = pred(int(shape>>2)%storage.NumAttrs, int64(shape>>4), int64(shape&15))
	}
	arity := int(shape % 4)
	if depth >= maxPlanDepth || d.nodes >= maxPlanNodes {
		arity = 0
	}
	for i := 0; i < arity; i++ {
		if i == arity-1 && flags&0x80 != 0 {
			n.Inputs = append(n.Inputs, nil)
			continue
		}
		n.Inputs = append(n.Inputs, d.node(depth+1))
	}
	return n
}

// validPlan states Validate's documented rules independently: every node
// and every input is non-nil and valid; a Scan is a leaf naming a relation;
// an IndexScan is a leaf naming a relation, with a predicate and an index
// access method; a Filter has one input and a predicate; a Join has two
// inputs and an Aggregate one; no other kind is valid.
func validPlan(n *Node) bool {
	if n == nil {
		return false
	}
	for _, in := range n.Inputs {
		if !validPlan(in) {
			return false
		}
	}
	leaf := len(n.Inputs) == 0
	switch n.Kind {
	case KindScan:
		return leaf && n.Relation != ""
	case KindIndexScan:
		return leaf && n.Relation != "" && n.HasPred && n.Access != AccessSeqScan
	case KindFilter:
		return len(n.Inputs) == 1 && n.HasPred
	case KindJoin:
		return len(n.Inputs) == 2
	case KindAggregate:
		return len(n.Inputs) == 1
	default:
		return false
	}
}

// countPlan counts the node slots of a tree, nil inputs included.
func countPlan(n *Node) int {
	c := 1
	if n != nil {
		for _, in := range n.Inputs {
			c += countPlan(in)
		}
	}
	return c
}

// FuzzPlanValidate builds arbitrary trees (see planDecoder): unknown kinds,
// arities 0-3, nil inputs, unnamed relations, missing predicates and
// IndexScans with seq-scan access. Validate must never panic and must
// accept a tree exactly when validPlan does; String and Explain must not
// panic either, and Explain must give one line per node slot.
func FuzzPlanValidate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1})                         // Scan(wisc)
	f.Add([]byte{4, 2, 0, 1, 0, 1, 1, 0, 1})       // Join of two scans
	f.Add([]byte{2, 0, 15})                        // IndexScan with seq-scan access
	f.Add([]byte{2, 0, 7})                         // IndexScan, non-clustered
	f.Add([]byte{3, 1, 0x82})                      // Filter over a nil input
	f.Add([]byte{5, 1, 0, 3, 1, 2, 1, 0, 1})       // Aggregate over Filter over Scan
	f.Add([]byte{0, 1, 1, 7, 1, 0, 6, 0, 1})       // unknown kinds
	f.Add([]byte{4, 3, 0, 1, 0, 1, 1, 0, 1, 1, 0}) // Join with three inputs
	f.Fuzz(func(t *testing.T, data []byte) {
		d := planDecoder{data: data}
		n := d.node(0)
		err := n.Validate()
		if want := validPlan(n); (err == nil) != want {
			t.Fatalf("Validate(%s) = %v, want valid %v", n, err, want)
		}
		_ = n.String()
		if lines := strings.Count(n.Explain(), "\n"); lines != countPlan(n) {
			t.Fatalf("Explain(%s) has %d lines, want %d:\n%s", n, lines, countPlan(n), n.Explain())
		}
	})
}
