package main

import (
	"math"
	"sort"
)

// summary condenses one metric's samples: the median and quartiles as
// Python's statistics.quantiles(values, n=4) computes them (the
// "exclusive" method), so numbers printed here match any external
// re-analysis of the same samples.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	q1, q2, q3 := quartiles(xs)
	return summary{Median: q2, Q1: q1, Q3: q3, N: len(xs)}
}

// spread is the interquartile distance as a share of the median (0 for a
// zero median).
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// quartiles returns the three cut points dividing xs into four equal-mass
// groups, interpolated exactly as Python's statistics.quantiles does with
// its default exclusive method (clamped to the data range for tiny
// samples). One sample yields itself three times; none yields zeros.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := len(d) + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// tailPermille are the percentiles a timing may be reported at, in tenths
// of a percent, highest first. Integer ranks keep "ten samples beyond"
// exact where float percentages round.
var tailPermille = []int{999, 990, 950, 900, 750}

// rank is the 1-based nearest rank of the pm-per-mille percentile of n
// samples.
func rank(n, pm int) int { return max(1, (pm*n+999)/1000) }

// tailPercentile returns the highest reportable percentile that leaves at
// least ten of n samples beyond it, or false when n is too small for any.
func tailPercentile(n int) (float64, bool) {
	for _, pm := range tailPermille {
		if n-rank(n, pm) >= 10 {
			return float64(pm) / 10, true
		}
	}
	return 0, false
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	return d[rank(len(d), int(math.Round(p*10)))-1]
}

// Verdicts of a base-versus-head comparison of one metric.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// verdict judges head against base for a metric that may worsen by at most
// bound (a share of the base median). When either side's spread is wider
// than the bound and their quartile ranges overlap, the runs cannot tell a
// change from noise and the metric is unresolved; otherwise the median's
// move decides.
func verdict(base, head summary, bound float64, higherBetter bool) string {
	if base.Median == 0 {
		return verdictUnresolved
	}
	worse := (head.Median - base.Median) / base.Median
	if higherBetter {
		worse = -worse
	}
	overlap := head.Q1 <= base.Q3 && base.Q1 <= head.Q3
	switch {
	case math.Max(base.spread(), head.spread()) > bound && overlap:
		return verdictUnresolved
	case worse > bound:
		return verdictWorse
	case worse < -bound:
		return verdictBetter
	default:
		return verdictUnchanged
	}
}
