// Package serve is the open-system serving layer: a long-running query
// front end that runs inside the simulation kernel and admits queries from
// open arrival processes instead of the paper's closed multiprogramming
// model. It comprises arrival generators (Poisson, bursty MMPP on-off,
// diurnal trace), an MPL governor plus a credit-based admission controller
// with a bounded wait queue and typed load shedding, per-tenant FIFO queues
// with weighted round-robin dispatch, and online SLO tracking (p50/p95/p99
// latency, goodput, shed rate) on the log-bucketed histograms from
// internal/obs.
//
// The package knows nothing about the Gamma machine: queries are executed
// through the narrow Executor interface that exec.Host satisfies, so the
// dependency arrow points from the machine assembly (internal/gamma) into
// here. Every stochastic decision draws from named rng streams derived from
// one seed, so a serving run is exactly reproducible — the same admission
// schedule, the same sheds, the same SLO statistics.
package serve

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sim"
)

// ArrivalKind enumerates the supported open arrival processes.
type ArrivalKind int

const (
	// Poisson arrivals: independent exponential inter-arrival gaps at
	// RateQPS — the memoryless baseline open workload.
	Poisson ArrivalKind = iota
	// Bursty arrivals: a two-state Markov-modulated Poisson process
	// (on/off). The process alternates between an "on" state running at
	// burstFactor times the mean rate and an "off" state running at
	// whatever residual rate keeps the long-run mean equal to RateQPS.
	// Dwell times in each state are exponential, so bursts have random
	// lengths but a controlled duty cycle.
	Bursty
	// Diurnal arrivals: a piecewise non-homogeneous Poisson process whose
	// rate follows a repeating trace (diurnalTrace, a compressed "day"),
	// normalized so the long-run mean rate is RateQPS. Models the daily
	// swell and ebb a production service sees.
	Diurnal
)

var arrivalNames = [...]string{
	Poisson: "poisson",
	Bursty:  "bursty",
	Diurnal: "diurnal",
}

func (k ArrivalKind) String() string {
	if k < 0 || int(k) >= len(arrivalNames) {
		return fmt.Sprintf("arrival(%d)", int(k))
	}
	return arrivalNames[k]
}

// ParseArrivalKind maps a flag string to its ArrivalKind.
func ParseArrivalKind(s string) (ArrivalKind, error) {
	for k, name := range arrivalNames {
		if s == name {
			return ArrivalKind(k), nil
		}
	}
	return 0, fmt.Errorf("serve: unknown arrival kind %q (want poisson, bursty, or diurnal)", s)
}

// ArrivalSpec describes one arrival process. RateQPS is the long-run mean
// offered load for every kind; each kind's short-term shape is fixed (see
// the bursty and diurnal constants below).
type ArrivalSpec struct {
	Kind    ArrivalKind `json:"kind"`
	RateQPS float64     `json:"rate_qps"`
}

// The bursty (MMPP on-off) shape: the on state runs at burstFactor times the
// mean rate for onFraction of the time, over a mean on+off cycle of
// cycleMean. burstFactor*onFraction <= 1 keeps the off-state rate >= 0.
const (
	burstFactor = 4
	onFraction  = 0.25
	cycleMean   = 2 * sim.Second
)

// diurnalPeriod is the length of one diurnal trace cycle: 60 simulated
// seconds, a compressed day.
const diurnalPeriod = 60 * sim.Second

// diurnalTrace is a 24-slot "hour of day" load curve: a deep night trough,
// a morning ramp, a midday plateau, and an evening peak — the shape
// interactive services see, compressed into one diurnalPeriod. Only its
// shape matters: diurnalNorm scales it to a mean of 1.
var diurnalTrace = [...]float64{
	0.2, 0.15, 0.1, 0.1, 0.15, 0.3, // night trough
	0.5, 0.9, 1.3, 1.5, 1.5, 1.4, // morning ramp to midday
	1.3, 1.3, 1.4, 1.5, 1.6, 1.8, // afternoon build
	2.0, 1.9, 1.6, 1.2, 0.8, 0.4, // evening peak and wind-down
}

var diurnalNorm = func() float64 {
	var sum float64
	for _, v := range diurnalTrace {
		sum += v
	}
	return float64(len(diurnalTrace)) / sum
}()

// Validate rejects specs that cannot produce a well-defined process.
func (s ArrivalSpec) Validate() error {
	if s.Kind < 0 || int(s.Kind) >= len(arrivalNames) {
		return fmt.Errorf("serve: unknown arrival kind %d", int(s.Kind))
	}
	if s.RateQPS <= 0 {
		return fmt.Errorf("serve: arrival rate must be positive, got %g", s.RateQPS)
	}
	return nil
}

// Arrivals generates inter-arrival gaps for one spec. It is a deterministic
// state machine over a single rng stream: the k-th call always returns the
// same gap for a given (spec, stream) pair, which is the foundation of the
// serving layer's byte-identical reproducibility. Not safe for concurrent
// use; the single arrival process is the only consumer.
type Arrivals struct {
	spec ArrivalSpec
	src  *rng.Source

	// Bursty state: whether the process is in the on state and how much of
	// the current dwell remains (in simulated nanoseconds).
	on        bool
	dwellLeft float64

	// Diurnal state: the process's own elapsed clock (advanced by every
	// returned gap).
	clock float64
}

// NewArrivals builds the generator. The stream should be dedicated (e.g.
// streams.Stream("serve.arrivals")) so arrival randomness never perturbs
// workload sampling or hardware models.
func NewArrivals(spec ArrivalSpec, src *rng.Source) (*Arrivals, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	a := &Arrivals{spec: spec, src: src}
	if spec.Kind == Bursty {
		// Start off, mid-dwell, so the first burst is not synchronized with
		// the start of the run.
		a.on = false
		a.dwellLeft = offDwellMean
	}
	return a, nil
}

// Kind reports the process kind.
func (a *Arrivals) Kind() ArrivalKind { return a.spec.Kind }

// RateQPS reports the long-run mean offered load.
func (a *Arrivals) RateQPS() float64 { return a.spec.RateQPS }

// The bursty process's mean dwell in each state, in nanoseconds.
const (
	onDwellMean  = float64(cycleMean) * onFraction
	offDwellMean = float64(cycleMean) * (1 - onFraction)
)

// onRate and offRate are the bursty process's state rates in arrivals per
// nanosecond; their onFraction-weighted mean is RateQPS.
func (a *Arrivals) onRate() float64 {
	return a.spec.RateQPS * burstFactor / 1e9
}

func (a *Arrivals) offRate() float64 {
	residual := a.spec.RateQPS * (1 - burstFactor*onFraction) / (1 - onFraction)
	return residual / 1e9
}

// Next returns the gap to the next arrival. Gaps are at least one
// nanosecond so arrivals are strictly ordered in simulated time.
func (a *Arrivals) Next() sim.Duration {
	var gap float64
	switch a.spec.Kind {
	case Poisson:
		gap = a.src.Exponential(1e9 / a.spec.RateQPS)
	case Bursty:
		gap = a.nextBursty()
	case Diurnal:
		gap = a.nextDiurnal()
	}
	if gap < 1 {
		gap = 1
	}
	return sim.Duration(gap)
}

// nextBursty advances the on/off state machine until an arrival lands
// inside the current dwell, accumulating the skipped remainder of each
// exhausted dwell into the gap.
func (a *Arrivals) nextBursty() float64 {
	elapsed := 0.0
	for {
		rate := a.offRate()
		if a.on {
			rate = a.onRate()
		}
		if rate > 0 {
			candidate := a.src.Exponential(1 / rate)
			if candidate <= a.dwellLeft {
				a.dwellLeft -= candidate
				return elapsed + candidate
			}
		}
		// No arrival in the rest of this dwell: consume it and switch state.
		elapsed += a.dwellLeft
		a.on = !a.on
		if a.on {
			a.dwellLeft = a.src.Exponential(onDwellMean)
		} else {
			a.dwellLeft = a.src.Exponential(offDwellMean)
		}
	}
}

// nextDiurnal draws from a piecewise-constant-rate Poisson process: within
// a trace slot the gap is exponential at the slot's rate; a draw that
// crosses the slot boundary is discarded beyond the boundary and redrawn in
// the next slot (the standard thinning-free construction for piecewise
// NHPPs, which keeps the process exact slot by slot).
func (a *Arrivals) nextDiurnal() float64 {
	period := float64(diurnalPeriod)
	slotLen := period / float64(len(diurnalTrace))
	elapsed := 0.0
	for {
		pos := a.clock
		for pos >= period {
			pos -= period
		}
		slot := int(pos / slotLen)
		if slot >= len(diurnalTrace) { // guard the pos == period float edge
			slot = len(diurnalTrace) - 1
		}
		slotEnd := float64(slot+1) * slotLen
		left := slotEnd - pos
		rate := a.spec.RateQPS * diurnalTrace[slot] * diurnalNorm / 1e9
		if rate > 0 {
			candidate := a.src.Exponential(1 / rate)
			if candidate <= left {
				a.clock += candidate
				return elapsed + candidate
			}
		}
		// No arrival before the slot boundary: jump to it and redraw.
		a.clock += left
		elapsed += left
	}
}
