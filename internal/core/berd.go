package core

import (
	"fmt"

	"repro/internal/storage"
)

// BERDPlacement is Bubba's Extended-Range Declustering (Section 2): the
// relation is range partitioned on a primary attribute; for each secondary
// partitioning attribute an auxiliary relation of (value, TID, home
// processor) entries is itself range partitioned across the processors and
// indexed. Queries on the primary attribute route like range partitioning;
// queries on a secondary attribute execute in two steps — first against the
// auxiliary relation to learn which processors hold qualifying tuples, then
// against those processors.
type BERDPlacement struct {
	primary *RangePlacement
	// auxCuts maps each secondary attribute to the range boundaries of its
	// auxiliary relation.
	auxCuts map[int][]int64
	p       int
}

// NewBERD builds a BERD placement: primary range partitioning on
// primaryAttr with primaryCuts, plus an auxiliary relation per secondary
// attribute with the given cuts (each len p-1).
func NewBERD(primaryAttr int, primaryCuts []int64, secondary map[int][]int64, p int) *BERDPlacement {
	b := &BERDPlacement{
		primary: NewRange(primaryAttr, primaryCuts, p),
		auxCuts: make(map[int][]int64, len(secondary)),
		p:       p,
	}
	for attr, cuts := range secondary {
		if attr == primaryAttr {
			panic("core: secondary attribute equals primary")
		}
		if len(cuts) != p-1 {
			panic(fmt.Sprintf("core: aux cuts for %s: need %d, got %d",
				storage.AttrName(attr), p-1, len(cuts)))
		}
		b.auxCuts[attr] = append([]int64(nil), cuts...)
	}
	return b
}

// NewBERDForRelation builds a BERD placement with quantile cuts for the
// primary and every secondary attribute computed from the relation.
func NewBERDForRelation(rel *storage.Relation, primaryAttr int, secondaryAttrs []int, p int) *BERDPlacement {
	secondary := make(map[int][]int64, len(secondaryAttrs))
	for _, a := range secondaryAttrs {
		secondary[a] = QuantileCuts(rel, a, p)
	}
	return NewBERD(primaryAttr, QuantileCuts(rel, primaryAttr, p), secondary, p)
}

// Name implements Placement.
func (b *BERDPlacement) Name() string { return "berd" }

// Processors implements Placement.
func (b *BERDPlacement) Processors() int { return b.p }

// SecondaryAttrs reports the secondary partitioning attributes in
// ascending order — the order the machine lays out their auxiliary trees.
func (b *BERDPlacement) SecondaryAttrs() []int {
	out := make([]int, 0, len(b.auxCuts))
	for a := range b.auxCuts {
		out = append(out, a)
	}
	return uniqueSorted(out)
}

// HomeOf implements Placement: tuples live where the primary range
// partitioning puts them.
func (b *BERDPlacement) HomeOf(t storage.Tuple) int { return b.primary.HomeOf(t) }

// AuxHomeOf returns the processor storing the auxiliary entry for the given
// secondary-attribute value.
func (b *BERDPlacement) AuxHomeOf(attr int, value int64) int {
	cuts, ok := b.auxCuts[attr]
	if !ok {
		panic(fmt.Sprintf("core: %s is not a secondary attribute", storage.AttrName(attr)))
	}
	return bucketOf(cuts, value)
}

// AuxAssignments builds the auxiliary relation of secondary attribute
// attr exactly as Section 2 describes: one entry (value, TID, home
// processor of the tuple) per tuple, range partitioned on value. homes[i]
// is the home processor of rel.Tuples[i], as HomeOf gives it. The result
// holds each processor's entries in relation order, every processor's in
// one backing array.
func (b *BERDPlacement) AuxAssignments(rel *storage.Relation, attr int, homes []int32) [][]storage.AuxEntry {
	if len(homes) != len(rel.Tuples) {
		panic(fmt.Sprintf("core: %d homes for %d tuples", len(homes), len(rel.Tuples)))
	}
	cuts, ok := b.auxCuts[attr]
	if !ok {
		panic(fmt.Sprintf("core: %s is not a secondary attribute", storage.AttrName(attr)))
	}
	// Count each processor's entries in starts[q+1]; the prefix sums make
	// starts[q] the first of processor q's entries.
	starts := make([]int, b.p+1)
	for i := range rel.Tuples {
		starts[bucketOf(cuts, rel.Tuples[i].Attrs[attr])+1]++
	}
	for q := 1; q <= b.p; q++ {
		starts[q] += starts[q-1]
	}
	out := make([][]storage.AuxEntry, b.p)
	entries := make([]storage.AuxEntry, len(rel.Tuples))
	for q := range out {
		out[q] = entries[starts[q]:starts[q]:starts[q+1]]
	}
	for i := range rel.Tuples {
		t := &rel.Tuples[i]
		v := t.Attrs[attr]
		q := bucketOf(cuts, v)
		out[q] = append(out[q], storage.AuxEntry{Value: v, TID: t.TID, Proc: int(homes[i])})
	}
	return out
}

// Route implements Placement. Primary-attribute predicates route directly;
// secondary-attribute predicates return the auxiliary processors to consult
// (two-step); anything else visits every processor.
func (b *BERDPlacement) Route(pred Predicate) Route {
	if pred.Attr == b.primary.attr {
		return b.primary.Route(pred)
	}
	if cuts, ok := b.auxCuts[pred.Attr]; ok {
		from, to := bucketRange(cuts, pred.Lo, pred.Hi)
		aux := make([]int, 0, to-from+1)
		for i := from; i <= to; i++ {
			aux = append(aux, i)
		}
		return Route{Aux: aux}
	}
	return Route{Participants: allProcessors(b.p)}
}
