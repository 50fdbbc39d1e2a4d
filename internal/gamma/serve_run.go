package gamma

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rebalance"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// serveSeedTag decorrelates the serving layer's rng factory from the
// machine's own: both are rooted at the experiment seed, and two factories
// with the same root hand out identical stream sequences (stream k of one
// equals stream k of the other). Without the tag, arrival gaps would be
// exponential transforms of the very uniforms driving disk 0's rotational
// latencies — a correlation the common-random-numbers discipline forbids.
const serveSeedTag = 0x53455256 // "SERV"

// ServeSpec controls one open-system serving measurement. Zero values
// defer to serve.Config's defaults (64 service slots, 4 tenants, 1000ms
// SLO, bounded queue of 4x the slots, queue-wait age-out at 4x the SLO).
type ServeSpec struct {
	// Arrival is the open arrival process; RateQPS is the offered load.
	Arrival serve.ArrivalSpec
	// Tenants configures multi-tenant dispatch; empty means 4 equal tenants.
	Tenants []serve.Tenant
	// MaxInService is the MPL governor: the concurrent-execution cap the
	// closed-loop MPL becomes in an open system.
	MaxInService int
	// MaxQueue bounds the admission wait queue (partitioned per tenant).
	MaxQueue int
	// SLOms is the latency objective for goodput accounting.
	SLOms float64
	// WarmupQueries completions are discarded (zero: none, negative is
	// rejected); the next MeasureQueries completions form the measurement
	// window (zero: 2000).
	WarmupQueries  int
	MeasureQueries int
	// Seed varies arrival, tenant-assignment and workload sampling streams;
	// defaults to the machine seed.
	Seed int64
	// MaxSimTime bounds the run in simulated time; defaults to 3600
	// simulated seconds.
	MaxSimTime sim.Duration
}

// ServeResult is one serving run: the front end's measured statistics plus
// the machine-side utilization picture over the same window.
type ServeResult struct {
	Strategy string `json:"strategy"`
	Mix      string `json:"mix"`

	Serve serve.Result `json:"serve"`

	CPUUtilization  float64 `json:"cpu_util"`
	DiskUtilization float64 `json:"disk_util"`
	DiskSkew        float64 `json:"disk_skew"`
	CPUSkew         float64 `json:"cpu_skew"`

	// FaultLog is the injector's applied-fault log when faults are armed.
	FaultLog []fault.Record `json:"fault_log,omitempty"`

	// Series is the windowed time-series snapshot when Config.Telemetry is
	// armed: machine probes plus the serving layer's goodput/shed/queue
	// series, sampled at the same instants.
	Series []obs.SeriesData `json:"time_series,omitempty"`

	// Heat is the per-fragment access snapshot when Config.Heat is armed
	// (counters cover the post-warm-up interval), and HotFragments ranks
	// its hottest entries — the same detector feed RunResult carries.
	Heat         *obs.HeatSnapshot `json:"heat,omitempty"`
	HotFragments []obs.HotFragment `json:"hot_fragments,omitempty"`

	// Sharing is the shared-scan manager's tally when Config.Sharing is
	// armed: with an open arrival process, batching rides the offered
	// load's natural burstiness.
	Sharing *exec.SharingStats `json:"sharing,omitempty"`
	// Rebalance is the membership controller's history when Config.Elastic
	// is armed: every executed (or refused) transition with its staging,
	// copy and cutover timestamps plus the data volume moved.
	Rebalance *rebalance.Report `json:"rebalance,omitempty"`
}

// String renders the headline numbers.
func (r ServeResult) String() string {
	return fmt.Sprintf("%s/%s λ=%.0f: %.2f q/s goodput, p99 %.1fms, shed %.1f%%",
		r.Strategy, r.Mix, r.Serve.OfferedQPS, r.Serve.GoodputQPS(),
		r.Serve.SLO.Latency.P99, 100*r.Serve.SLO.ShedRate())
}

// RunServe executes one open-system serving experiment on a fresh machine
// state: the serve front end admits queries from the spec's arrival process
// and executes them on this machine's scheduler under the MPL governor.
// Like Run, the machine is reset first, so runs are independent and
// deterministic for a (machine seed, run seed) pair, and it measures over
// the same exec.Window: only the admission differs.
func (m *Machine) RunServe(mix workload.Mix, spec ServeSpec) (ServeResult, error) {
	seed := spec.Seed
	if seed == 0 {
		seed = m.Cfg.Seed
	}
	m.reset()
	name, card := m.Relation.Name, m.Relation.Cardinality()
	access := mix.AccessChooser()

	if spec.MeasureQueries == 0 {
		spec.MeasureQueries = 2000
	}
	if spec.MaxSimTime <= 0 {
		spec.MaxSimTime = 3600 * sim.Second
	}
	cfg := serve.Config{
		Arrival:      spec.Arrival,
		Tenants:      spec.Tenants,
		MaxInService: spec.MaxInService,
		MaxQueue:     spec.MaxQueue,
		SLOms:        spec.SLOms,
		Sample: func(src *rng.Source) (*plan.Node, string) {
			pred, cls := mix.Sample(src, card)
			return plan.Select(name, pred, access(pred)), cls.Name
		},
	}
	if m.Telemetry != nil {
		cfg.BurnBudget = m.Cfg.Telemetry.BurnBudget
	}
	win := m.windowSpec(spec.WarmupQueries, spec.MeasureQueries, spec.MaxSimTime)
	res, err := serve.Run(m.Eng, m.newStreams(seed^serveSeedTag), cfg, win, m.Host)
	if err != nil {
		return ServeResult{}, err
	}

	ms := m.machineStats()
	return ServeResult{
		Strategy:        ms.Strategy,
		Mix:             mix.Name,
		Serve:           res,
		CPUUtilization:  ms.CPUUtilization,
		DiskUtilization: ms.DiskUtilization,
		DiskSkew:        ms.DiskSkew,
		CPUSkew:         ms.CPUSkew,
		FaultLog:        ms.FaultLog,
		Series:          ms.Series,
		Heat:            ms.Heat,
		HotFragments:    ms.HotFragments,
		Sharing:         ms.Sharing,
		Rebalance:       ms.Rebalance,
	}, nil
}
