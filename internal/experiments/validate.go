package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gamma"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/workload"
)

// ResponsePoint is one measurement of the declustering-width experiment.
type ResponsePoint struct {
	Processors     int
	MeanResponseMS float64
	ModeledMS      float64 // Equation 1's prediction at this width
}

// ResponseCurve validates the Section 3.2 response-time model (Equation 1)
// against the simulator: the relation is declustered over exactly M
// processors (range partitioning on the queried attribute, so every
// processor participates in every query), a single terminal issues the
// workload, and the mean response time is measured for each M. The paper
// derives the ideal degree of declustering by minimizing Equation 1; if
// model and simulator agree, the measured curve is U-shaped with its
// minimum near the planner's M.
type ResponseCurve struct {
	Points    []ResponsePoint
	PlannerM  float64 // the closed-form M for this workload
	MeasuredM int     // processor count with the lowest measured response
	ModeledM  int     // processor count with the lowest modeled response
}

// RunResponseCurve measures the curve for the given query class (attribute
// and result width) over the candidate processor counts.
func RunResponseCurve(cls workload.Class, widths []int, opts Options) (ResponseCurve, error) {
	opts = opts.withDefaults()
	var out ResponseCurve
	mix := workload.Mix{Name: "validate-" + cls.Name, Classes: []workload.Class{cls}}

	// Planner view of the same workload.
	cfgAll := ConfigFor(opts)
	specs := workload.EstimateSpecs(mix, opts.Cardinality, cfgAll.HW, cfgAll.Costs)
	pp := workload.PlanParamsFor(opts.Cardinality, opts.Processors, cfgAll.Costs)
	plan, err := core.ComputePlan(specs, pp)
	if err != nil {
		return out, err
	}
	out.PlannerM = plan.M
	out.ModeledM = plan.OptimalM(pp)

	rel := storage.GenerateWisconsin(storage.GenSpec{
		Cardinality: opts.Cardinality, Seed: opts.Seed,
	})
	// Decluster on the *other* attribute, so a predicate on the queried
	// attribute carries no localization information and every one of the m
	// processors participates — the m-way execution Equation 1 models.
	declusterAttr := storage.Unique2
	if cls.Attr == storage.Unique2 {
		declusterAttr = storage.Unique1
	}
	bestMeasured := 0.0
	for _, m := range widths {
		if m <= 0 {
			return out, fmt.Errorf("experiments: bad declustering width %d", m)
		}
		o := opts
		o.Processors = m
		cfg := ConfigFor(o)
		pl := core.NewRangeForRelation(rel, declusterAttr, m)
		machine, err := gamma.Build(rel, pl, cfg)
		if err != nil {
			return out, err
		}
		res, err := machine.Run(mix, gamma.RunSpec{
			MPL:            1, // a single query in the system, as in Eq. 1
			WarmupQueries:  opts.WarmupQueries / 4,
			MeasureQueries: opts.MeasureQueries / 2,
			Seed:           opts.Seed,
		})
		machine.Close()
		if err != nil {
			return out, err
		}
		modeled := core.ResponseTime(float64(m), plan.TuplesPerQAve,
			plan.CPUAveMS, plan.DiskAveMS, plan.NetAveMS, pp)
		out.Points = append(out.Points, ResponsePoint{
			Processors:     m,
			MeanResponseMS: res.MeanResponseMS,
			ModeledMS:      modeled,
		})
		if out.MeasuredM == 0 || res.MeanResponseMS < bestMeasured {
			bestMeasured = res.MeanResponseMS
			out.MeasuredM = m
		}
	}
	return out, nil
}

// Table renders measured versus modeled response times.
func (rc ResponseCurve) Table() *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Equation 1 validation (planner M = %.2f, modeled optimum %d, measured optimum %d)",
			rc.PlannerM, rc.ModeledM, rc.MeasuredM),
		"processors", "measured ms", "modeled ms")
	for _, p := range rc.Points {
		tb.AddRow(p.Processors,
			fmt.Sprintf("%.1f", p.MeanResponseMS),
			fmt.Sprintf("%.1f", p.ModeledMS))
	}
	return tb
}
