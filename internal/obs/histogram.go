package obs

import (
	"math"
	"sort"
	"sync"
)

// Growth is the histogram's per-bucket growth factor. Bucket i covers
// [Growth^i, Growth^(i+1)); reporting a bucket's harmonic midpoint
// 2*l*u/(l+u) equalizes the relative error toward both bucket edges and
// bounds it by (Growth-1)/(Growth+1) — under 2.5% — while a full latency
// range from nanoseconds to hours fits in a few hundred sparse buckets.
const Growth = 1.05

// MaxQuantileRelError is the histogram's worst-case relative error on any
// quantile estimate of positive samples (see Growth).
const MaxQuantileRelError = (Growth - 1) / (Growth + 1)

var invLogGrowth = 1 / math.Log(Growth)

// Histogram is a log-bucketed streaming histogram in the DDSketch family:
// it records counts per exponential bucket instead of individual samples,
// so p50/p90/p99 come out of O(buckets) memory with a bounded relative
// error whatever the run length. Non-positive samples (a zero-length
// service, say) are counted exactly in a dedicated zero bucket.
//
// All methods are concurrent-safe, so one histogram may be observed and
// summarized from different goroutines.
type Histogram struct {
	mu      sync.Mutex
	n       int64
	sum     float64
	min     float64
	max     float64
	zeros   int64 // samples <= 0
	buckets map[int]int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make(map[int]int64)}
}

// bucketIndex maps a positive value to its bucket.
func bucketIndex(v float64) int {
	return int(math.Floor(math.Log(v) * invLogGrowth))
}

// Observe records one sample. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.n++
	h.sum += v
	if v <= 0 {
		h.zeros++
		return
	}
	h.buckets[bucketIndex(v)]++
}

// N reports the number of samples (0 on a nil receiver).
func (h *Histogram) N() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum reports the exact sample sum (0 on a nil receiver). Together with N
// it lets windowed probes derive per-window means from two cumulative
// readings.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile estimates the p-th percentile (0..100). Estimates for positive
// samples are within MaxQuantileRelError of the exact order statistic;
// non-positive samples are reported as 0 exactly. Returns 0 if empty.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(p)
}

func (h *Histogram) quantileLocked(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := p / 100 * float64(h.n-1)
	if rank < 0 {
		rank = 0
	}
	if rank > float64(h.n-1) {
		rank = float64(h.n - 1)
	}
	// The target sample is the one at index floor(rank) of the sorted
	// series (nearest-rank; interpolation is below bucket resolution).
	target := int64(rank)
	if target < h.zeros {
		// The target sample is one of the non-positive ones, which the
		// zeros bucket counts but does not locate. Report 0 clamped into
		// the observed range: an all-negative series must not produce an
		// estimate above its max (nor can any series produce one below
		// its min).
		v := 0.0
		if v > h.max {
			v = h.max
		}
		if v < h.min {
			v = h.min
		}
		return v
	}
	cum := h.zeros
	for _, i := range h.sortedBuckets() {
		cum += h.buckets[i]
		if target < cum {
			// Harmonic midpoint of [G^i, G^(i+1)): 2*l*u/(l+u) = l*2G/(1+G),
			// the point with equal relative error to both edges.
			mid := math.Pow(Growth, float64(i)) * 2 * Growth / (1 + Growth)
			// Clamp to the observed range: the extreme buckets are only
			// partially occupied.
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max
}

func (h *Histogram) sortedBuckets() []int {
	idx := make([]int, 0, len(h.buckets))
	for i := range h.buckets {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}

// Merge folds another histogram's samples into h. Bucket counts add, so
// merging is associative and order-independent on all count-derived
// statistics (quantiles, N, min, max). No-op when other is nil or empty.
// The other histogram is copied under its own lock first (never holding
// both locks at once), so opposite-direction merges cannot deadlock.
func (h *Histogram) Merge(other *Histogram) {
	if h == nil || other == nil {
		return
	}
	other.mu.Lock()
	on, osum, omin, omax, ozeros := other.n, other.sum, other.min, other.max, other.zeros
	obuckets := make(map[int]int64, len(other.buckets))
	for i, c := range other.buckets {
		obuckets[i] = c
	}
	other.mu.Unlock()
	if on == 0 {
		return
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		h.min, h.max = omin, omax
	} else {
		if omin < h.min {
			h.min = omin
		}
		if omax > h.max {
			h.max = omax
		}
	}
	h.n += on
	h.sum += osum
	h.zeros += ozeros
	for i, c := range obuckets {
		h.buckets[i] += c
	}
}

// Reset discards all samples, keeping the handle valid.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.n, h.sum, h.min, h.max, h.zeros = 0, 0, 0, 0, 0
	for i := range h.buckets {
		delete(h.buckets, i)
	}
}

// HistogramStats is the serializable summary of one histogram.
type HistogramStats struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
}

// Stats summarizes the histogram.
func (h *Histogram) Stats() HistogramStats {
	if h == nil {
		return HistogramStats{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var mean float64
	if h.n > 0 {
		mean = h.sum / float64(h.n)
	}
	return HistogramStats{
		N:    h.n,
		Mean: mean,
		Min:  h.min,
		Max:  h.max,
		P50:  h.quantileLocked(50),
		P90:  h.quantileLocked(90),
		P99:  h.quantileLocked(99),
	}
}
