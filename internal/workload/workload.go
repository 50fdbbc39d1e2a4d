// Package workload defines the paper's Section 6 workload: the two query
// types QA (attribute A = unique1, non-clustered index) and QB (attribute
// B = unique2, clustered index) in their "low" and "moderate" resource
// flavours, the four 50/50 mixes the evaluation runs, predicate sampling,
// and the analytic resource estimates the MAGIC planner consumes.
package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/storage"
)

// Class is one query class of a mix.
type Class struct {
	Name      string
	Attr      int
	Access    plan.Access
	Tuples    int // result cardinality (predicate width on the unique attrs)
	Frequency float64
}

// Mix is a workload: classes with relative frequencies, plus an optional
// access-skew model. With HotProbability > 0, that fraction of queries
// lands in the first HotFraction of the value domain (an 80/20-style
// hot-spot pattern) — the bottleneck concern Section 6 cites from [GD90].
// Zero values give the paper's uniform access.
type Mix struct {
	Name    string
	Classes []Class

	HotProbability float64 // fraction of queries aimed at the hot range
	HotFraction    float64 // fraction of the domain that is hot
}

// WithHotSpot returns a copy of the mix in which hotProb of the queries
// target the first hotFrac of the attribute domain.
func (m Mix) WithHotSpot(hotProb, hotFrac float64) Mix {
	if hotProb < 0 || hotProb > 1 || hotFrac <= 0 || hotFrac > 1 {
		panic(fmt.Sprintf("workload: bad hot-spot spec (%g, %g)", hotProb, hotFrac))
	}
	m.HotProbability = hotProb
	m.HotFraction = hotFrac
	m.Name = fmt.Sprintf("%s+hot%.0f/%.0f", m.Name, hotProb*100, hotFrac*100)
	return m
}

// Paper Section 6 result cardinalities: low-A is a single-tuple
// non-clustered retrieval; low-B a 10-tuple clustered range (0.01% of the
// 100,000-tuple relation); moderate-A a 30-tuple non-clustered range
// (0.03%); moderate-B a 300-tuple clustered range (0.3%). The absolute
// tuple counts — not the percentages — drive the comparative dynamics
// (operator fan-out, BERD's per-tuple fetches), so scaled-down relations
// keep the counts, clamped to the relation size.
func classQA(low bool, card int) Class {
	if low {
		return Class{Name: "QA-low", Attr: storage.Unique1,
			Access: plan.AccessNonClustered, Tuples: 1, Frequency: 0.5}
	}
	return Class{Name: "QA-moderate", Attr: storage.Unique1,
		Access: plan.AccessNonClustered, Tuples: minInt(30, card), Frequency: 0.5}
}

func classQB(low bool, card int) Class {
	if low {
		return Class{Name: "QB-low", Attr: storage.Unique2,
			Access: plan.AccessClustered, Tuples: minInt(10, card), Frequency: 0.5}
	}
	return Class{Name: "QB-moderate", Attr: storage.Unique2,
		Access: plan.AccessClustered, Tuples: minInt(300, card), Frequency: 0.5}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// LowLow is the Section 7.1 mix.
func LowLow(card int) Mix {
	return Mix{Name: "low-low", Classes: []Class{classQA(true, card), classQB(true, card)}}
}

// LowLowWider is the Figure 9 variant: QB's selectivity doubled (20 tuples
// at 100k).
func LowLowWider(card int) Mix {
	qb := classQB(true, card)
	qb.Tuples *= 2
	qb.Name = "QB-low-wider"
	return Mix{Name: "low-low-wider", Classes: []Class{classQA(true, card), qb}}
}

// LowModerate is the Section 7.2 mix.
func LowModerate(card int) Mix {
	return Mix{Name: "low-moderate", Classes: []Class{classQA(true, card), classQB(false, card)}}
}

// ModerateLow is the Section 7.3 mix.
func ModerateLow(card int) Mix {
	return Mix{Name: "moderate-low", Classes: []Class{classQA(false, card), classQB(true, card)}}
}

// ModerateModerate is the Section 7.4 mix.
func ModerateModerate(card int) Mix {
	return Mix{Name: "moderate-moderate", Classes: []Class{classQA(false, card), classQB(false, card)}}
}

// AccessChooser returns the access-method chooser for this mix (non-
// clustered on A, clustered on B, per Section 6).
func (m Mix) AccessChooser() exec.AccessChooser {
	byAttr := make(map[int]plan.Access, len(m.Classes))
	for _, c := range m.Classes {
		byAttr[c.Attr] = c.Access
	}
	return func(pred core.Predicate) plan.Access {
		if k, ok := byAttr[pred.Attr]; ok {
			return k
		}
		if pred.Attr == storage.Unique2 {
			return plan.AccessClustered
		}
		if pred.Attr == storage.Unique1 {
			return plan.AccessNonClustered
		}
		// No index covers the attribute: full sequential scan.
		return plan.AccessSeqScan
	}
}

// Sample draws one query: a class (by frequency) and a predicate whose
// value range covers exactly Tuples tuples of the unique attribute domain
// [0, card).
func (m Mix) Sample(src *rng.Source, card int) (core.Predicate, Class) {
	if len(m.Classes) == 0 {
		panic("workload: empty mix")
	}
	var total float64
	for _, c := range m.Classes {
		total += c.Frequency
	}
	r := src.Float64() * total
	cls := m.Classes[len(m.Classes)-1]
	for _, c := range m.Classes {
		if r < c.Frequency {
			cls = c
			break
		}
		r -= c.Frequency
	}
	if cls.Tuples > card {
		panic(fmt.Sprintf("workload: class %s wants %d tuples of %d", cls.Name, cls.Tuples, card))
	}
	span := card - cls.Tuples + 1
	if m.HotProbability > 0 && src.Bool(m.HotProbability) {
		if hot := int(float64(span) * m.HotFraction); hot >= 1 {
			span = hot
		}
	}
	lo := int64(src.Intn(span))
	return core.Predicate{Attr: cls.Attr, Lo: lo, Hi: lo + int64(cls.Tuples) - 1}, cls
}

// EstimateSpecs derives the planner's per-class resource requirements
// (CPUi, Diski, Neti of Section 3.2) from the hardware parameters and the
// access paths, as a database administrator would when configuring MAGIC:
//
//   - non-clustered access: one random disk read per qualifying tuple (index
//     interior pages are buffer-resident in steady state);
//   - clustered access: one random positioning read, then sequential reads;
//   - CPU: per-page processing (Table 2) plus FIFO transfers;
//   - network: the result packets plus start/reply control messages.
func EstimateSpecs(m Mix, card int, hwp hw.Params, costs exec.Costs) []core.QuerySpec {
	specs := make([]core.QuerySpec, 0, len(m.Classes))
	randomMS := hwp.AvgSettleMS + hwp.MaxLatencyMS/2 + hwp.PageTransferTime().Milliseconds()
	seqMS := hwp.PageTransferTime().Milliseconds()
	for _, c := range m.Classes {
		var diskMS, cpuMS float64
		pages := hwp.PagesForTuples(c.Tuples)
		switch c.Access {
		case plan.AccessNonClustered:
			diskMS = float64(c.Tuples) * randomMS
			cpuMS = float64(c.Tuples) * (hwp.InstrTime(hwp.ReadPageInstr) + hwp.InstrTime(hwp.XferPageInstr)).Milliseconds()
		default: // clustered
			diskMS = randomMS + float64(pages-1)*seqMS
			cpuMS = float64(pages) * (hwp.InstrTime(hwp.ReadPageInstr) + hwp.InstrTime(hwp.XferPageInstr)).Milliseconds()
		}
		// Index search CPU (interior + leaf pages, buffer resident).
		cpuMS += 2 * hwp.InstrTime(costs.IndexPageInstr).Milliseconds()
		// Network: start message + result packets (the last doubles as the
		// completion signal).
		netMS := hwp.MsgCost(100).Milliseconds()
		packets := hwp.PacketsForTuples(c.Tuples)
		if packets == 0 {
			packets = 1
		}
		bytesLeft := hwp.TupleBytes(c.Tuples) + 100
		for i := 0; i < packets; i++ {
			b := bytesLeft
			if b > hwp.MaxPacket {
				b = hwp.MaxPacket
			}
			bytesLeft -= b
			netMS += hwp.MsgCost(b).Milliseconds()
		}
		specs = append(specs, core.QuerySpec{
			Name:           c.Name,
			Attr:           c.Attr,
			TuplesPerQuery: float64(c.Tuples),
			Frequency:      c.Frequency,
			CPUms:          cpuMS,
			DiskMS:         diskMS,
			NetMS:          netMS,
		})
	}
	return specs
}

// PlanParamsFor bundles the planning constants for a machine size and
// relation, using the DESIGN.md-calibrated CP and CS defaults.
func PlanParamsFor(card, processors int, costs exec.Costs) core.PlanParams {
	return core.PlanParams{
		CPms:        1.7,
		CSms:        costs.CSms,
		Processors:  processors,
		Cardinality: card,
	}
}
