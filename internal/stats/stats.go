// Package stats provides the measurement machinery for the simulation study:
// streaming accumulators for observational data (query response times,
// processors used per query) and batch-means confidence intervals. It also
// renders the fixed-width tables and CSV the benchmark harness prints for
// each figure of the paper.
package stats

import (
	"math"
	"sort"
)

// Accumulator collects observational samples with Welford's online algorithm,
// which is numerically stable for long runs.
type Accumulator struct {
	n        int64
	mean     float64
	m2       float64
	min, max float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// Mean reports the sample mean (0 if empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance reports the unbiased sample variance (0 if fewer than 2 samples).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev reports the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min reports the smallest observation (0 if empty).
func (a *Accumulator) Min() float64 { return a.min }

// Max reports the largest observation (0 if empty).
func (a *Accumulator) Max() float64 { return a.max }

// BatchMeans estimates a confidence interval for the mean of a (possibly
// autocorrelated) series by splitting it into batches, a standard technique
// for steady-state simulation output analysis.
type BatchMeans struct {
	samples []float64
}

// Add appends one observation.
func (b *BatchMeans) Add(x float64) { b.samples = append(b.samples, x) }

// N reports the number of observations.
func (b *BatchMeans) N() int { return len(b.samples) }

// Interval returns the grand mean and the half-width of an approximate 95%
// confidence interval using nbatch batches. It returns (mean, 0) when there
// is too little data for an interval.
func (b *BatchMeans) Interval(nbatch int) (mean, halfWidth float64) {
	n := len(b.samples)
	if n == 0 {
		return 0, 0
	}
	var grand Accumulator
	for _, x := range b.samples {
		grand.Add(x)
	}
	if nbatch < 2 || n < 2*nbatch {
		return grand.Mean(), 0
	}
	per := n / nbatch
	var batch Accumulator
	for i := 0; i < nbatch; i++ {
		var m Accumulator
		for j := i * per; j < (i+1)*per; j++ {
			m.Add(b.samples[j])
		}
		batch.Add(m.Mean())
	}
	// t-quantile for 95% two-sided with nbatch-1 degrees of freedom.
	t := tQuantile95(nbatch - 1)
	return batch.Mean(), t * batch.StdDev() / math.Sqrt(float64(nbatch))
}

// tQuantile95 returns the 0.975 quantile of Student's t distribution for
// small degrees of freedom (table lookup; converges to the normal 1.96).
func tQuantile95(df int) float64 {
	table := []float64{0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
		2.306, 2.262, 2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
		2.110, 2.101, 2.093, 2.086}
	if df <= 0 {
		return math.Inf(1)
	}
	if df < len(table) {
		return table[df]
	}
	switch {
	case df < 30:
		return 2.05
	case df < 60:
		return 2.00
	default:
		return 1.96
	}
}

// Percentile returns the p-th percentile (0..100) of the recorded samples by
// sorting a copy; intended for end-of-run reporting, not hot paths.
func (b *BatchMeans) Percentile(p float64) float64 {
	if len(b.samples) == 0 {
		return 0
	}
	c := append([]float64(nil), b.samples...)
	sort.Float64s(c)
	if p <= 0 {
		return c[0]
	}
	if p >= 100 {
		return c[len(c)-1]
	}
	rank := p / 100 * float64(len(c)-1)
	// Snap ranks that are an integer up to floating-point error (e.g.
	// p=30, n=11 gives 0.3*10 = 2.9999999999999996) so exact-rank
	// percentiles return the sample itself instead of interpolating with
	// a stray 1e-16 weight on a neighbor.
	if r := math.Round(rank); math.Abs(rank-r) < 1e-9 {
		rank = r
	}
	lo := int(rank)
	frac := rank - float64(lo)
	if frac == 0 || lo+1 >= len(c) {
		return c[lo]
	}
	return c[lo]*(1-frac) + c[lo+1]*frac
}
