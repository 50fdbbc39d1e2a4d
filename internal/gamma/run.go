package gamma

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rebalance"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// RunSpec controls one closed-workload measurement.
type RunSpec struct {
	// MPL is the multiprogramming level: the number of terminals, each
	// submitting its next query the moment the previous one completes
	// (zero think time), as in the paper's figures.
	MPL int
	// WarmupQueries completions are discarded before measurement starts.
	WarmupQueries int
	// MeasureQueries completions constitute the measurement window.
	MeasureQueries int
	// Seed varies the workload sampling; defaults to the machine seed.
	Seed int64
	// MaxSimTime aborts a run that fails to complete (guard against
	// misconfiguration); defaults to 30 simulated minutes.
	MaxSimTime sim.Duration
}

// ClassStats summarizes one query class within a measurement window.
type ClassStats struct {
	Completed      int
	MeanResponseMS float64
	P95ResponseMS  float64
	MeanProcsUsed  float64
}

// NodeUtil is one operator node's share of the measurement window: the
// per-node breakdown behind RunResult's machine-wide means. Comparing rows
// exposes execution skew — range declustering concentrates a selection's
// work on few nodes while MAGIC and BERD spread it (Section 7).
type NodeUtil struct {
	Node          int     `json:"node"`
	CPUUtil       float64 `json:"cpu_util"`
	DiskUtil      float64 `json:"disk_util"`
	DiskReads     int64   `json:"disk_reads"`
	BufferHitRate float64 `json:"buffer_hit_rate"`
	OpsExecuted   int64   `json:"ops_executed"`
	TuplesShipped int64   `json:"tuples_shipped"`
}

// RunResult summarizes a measurement window.
type RunResult struct {
	Strategy        string
	Mix             string
	MPL             int
	Completed       int
	ElapsedSim      sim.Duration
	ThroughputQPS   float64
	MeanResponseMS  float64
	P95ResponseMS   float64
	MeanProcsUsed   float64
	MeanTuples      float64
	CPUUtilization  float64 // mean over operator nodes
	DiskUtilization float64
	BufferHitRate   float64
	DiskReadsPerQry float64
	// PerClass breaks response time and processor usage down by query
	// class (the paper discusses QA and QB behaviour separately).
	PerClass map[string]ClassStats
	// NodeStats is the per-node breakdown of the utilization means above,
	// in node order. DiskSkew and CPUSkew condense it to max/mean ratios
	// (1.0 = perfectly balanced; higher = more execution skew).
	NodeStats []NodeUtil `json:"node_stats,omitempty"`
	DiskSkew  float64    `json:"disk_skew,omitempty"`
	CPUSkew   float64    `json:"cpu_skew,omitempty"`
	// Series is the windowed time-series snapshot when Config.Telemetry is
	// armed: per-node utilization/queue-depth and machine skew over the
	// measurement window (the sampler is rebased at the warm-up boundary).
	Series []obs.SeriesData `json:"time_series,omitempty"`
	// Heat is the per-fragment access snapshot when Config.Heat is armed
	// (counters cover the measurement window only), and HotFragments
	// ranks its hottest entries — the detector feed an adaptive
	// re-declustering loop subscribes to.
	Heat         *obs.HeatSnapshot `json:"heat,omitempty"`
	HotFragments []obs.HotFragment `json:"hot_fragments,omitempty"`
	// Sharing is the shared-scan manager's tally when Config.Sharing is
	// armed (counters cover the measurement window only).
	Sharing *exec.SharingStats `json:"sharing,omitempty"`
	// Rebalance is the membership controller's history when Config.Elastic
	// is armed: every executed (or refused) transition with its staging,
	// copy and cutover timestamps plus the data volume moved.
	Rebalance *rebalance.Report `json:"rebalance,omitempty"`

	// Degraded-mode accounting. Outcomes tallies every completion in the
	// window (Completed and the response statistics cover only the
	// successful ones); RetriesTotal counts operator redispatches;
	// FaultLog is the injector's applied-fault log for the whole run.
	Outcomes     exec.Outcomes  `json:"outcomes,omitempty"`
	RetriesTotal int64          `json:"retries_total,omitempty"`
	FaultLog     []fault.Record `json:"fault_log,omitempty"`
}

// String renders the headline numbers.
func (r RunResult) String() string {
	return fmt.Sprintf("%s/%s MPL=%d: %.2f q/s, resp %.1fms, %.2f procs/query",
		r.Strategy, r.Mix, r.MPL, r.ThroughputQPS, r.MeanResponseMS, r.MeanProcsUsed)
}

// Run executes one closed-workload experiment on a fresh machine state and
// returns the measured steady-state statistics. The machine is reset first,
// so runs are independent and deterministic for a (machine seed, run seed)
// pair.
func (m *Machine) Run(mix workload.Mix, spec RunSpec) (RunResult, error) {
	if spec.MPL <= 0 {
		return RunResult{}, fmt.Errorf("gamma: MPL must be positive, got %d", spec.MPL)
	}
	if spec.MaxSimTime <= 0 {
		spec.MaxSimTime = 30 * 60 * sim.Second
	}
	seed := spec.Seed
	if seed == 0 {
		seed = m.Cfg.Seed
	}
	m.reset()
	win, err := exec.NewWindow(m.Eng, m.windowSpec(spec.WarmupQueries, spec.MeasureQueries, spec.MaxSimTime))
	if err != nil {
		return RunResult{}, err
	}
	eng := m.Eng
	access := mix.AccessChooser()
	card := m.Relation.Cardinality()
	streams := m.newStreams(seed)

	type classAcc struct {
		resp  stats.BatchMeans
		procs stats.Accumulator
	}
	var (
		resp       stats.BatchMeans
		procs      stats.Accumulator
		tuples     stats.Accumulator
		perClass   = map[string]*classAcc{}
		retriesTot int64
	)
	for term := 0; term < spec.MPL; term++ {
		src := streams.Stream(fmt.Sprintf("terminal%d", term))
		eng.Spawn(fmt.Sprintf("terminal%d", term), func(p *sim.Proc) {
			for !eng.Stopped() {
				pred, cls := mix.Sample(src, card)
				res := m.Host.Submit(p, plan.Select(m.Relation.Name, pred, access(pred)))
				if !win.Complete(res.Outcome) {
					continue
				}
				retriesTot += int64(res.Retries)
				// Abandoned queries count toward the window's completions
				// but not its performance statistics: a timed-out query
				// has no meaningful response time.
				if !res.Outcome.Succeeded() {
					continue
				}
				resp.Add(res.ResponseMS())
				procs.Add(float64(res.ProcessorsUsed))
				tuples.Add(float64(res.Tuples))
				ca := perClass[cls.Name]
				if ca == nil {
					ca = &classAcc{}
					perClass[cls.Name] = ca
				}
				ca.resp.Add(res.ResponseMS())
				ca.procs.Add(float64(res.ProcessorsUsed))
			}
		})
	}
	win.SpawnSampler()

	reached, err := win.Run()
	if err != nil {
		return RunResult{}, err
	}
	if !reached {
		return RunResult{}, fmt.Errorf("gamma: run hit MaxSimTime with %d/%d queries done",
			win.Completed(), spec.WarmupQueries+spec.MeasureQueries)
	}

	elapsed := sim.Duration(eng.Now() - win.Start())
	if elapsed <= 0 {
		return RunResult{}, fmt.Errorf("gamma: empty measurement window")
	}
	measured := resp.N()
	out := m.machineStats()
	out.Mix, out.MPL, out.Completed, out.ElapsedSim = mix.Name, spec.MPL, measured, elapsed
	out.ThroughputQPS = float64(measured) / elapsed.Seconds()
	out.MeanProcsUsed, out.MeanTuples = procs.Mean(), tuples.Mean()
	out.Outcomes, out.RetriesTotal = win.Outcomes(), retriesTot
	if measured > 0 {
		// Disk read counters start with the window: reset builds fresh
		// disks, and the warm-up boundary clears them.
		out.DiskReadsPerQry = float64(m.totalDiskReads()) / float64(measured)
	}
	out.MeanResponseMS, _ = resp.Interval(10)
	out.P95ResponseMS = resp.Percentile(95)
	out.PerClass = make(map[string]ClassStats, len(perClass))
	for name, ca := range perClass {
		clsMean, _ := ca.resp.Interval(10)
		out.PerClass[name] = ClassStats{
			Completed:      ca.resp.N(),
			MeanResponseMS: clsMean,
			P95ResponseMS:  ca.resp.Percentile(95),
			MeanProcsUsed:  ca.procs.Mean(),
		}
	}
	return out, nil
}

// windowSpec is the measurement window both run shapes measure this
// machine over: its counters reset and its sampler rebases at the warm-up
// boundary.
func (m *Machine) windowSpec(warmup, measure int, maxSimTime sim.Duration) exec.WindowSpec {
	return exec.WindowSpec{
		WarmupQueries:  warmup,
		MeasureQueries: measure,
		MaxSimTime:     maxSimTime,
		Telemetry:      m.Telemetry,
		ResetMachine:   m.resetStats,
	}
}

// machineStats assembles the machine side of a measurement window, which
// Run and RunServe both report: the strategy, per-node utilization with its
// means and skew, and every armed subsystem's snapshot.
func (m *Machine) machineStats() RunResult {
	out := RunResult{Strategy: m.Placement.Name(), NodeStats: make([]NodeUtil, len(m.Nodes))}
	var hits, total float64
	for i, n := range m.Nodes {
		out.CPUUtilization += n.CPU.Utilization()
		out.DiskUtilization += n.Disk.Utilization()
		hits += float64(n.Pool.Hits())
		total += float64(n.Pool.Hits() + n.Pool.Misses())
		out.NodeStats[i] = NodeUtil{
			Node:          n.ID,
			CPUUtil:       n.CPU.Utilization(),
			DiskUtil:      n.Disk.Utilization(),
			DiskReads:     n.Disk.Reads(),
			BufferHitRate: n.Pool.HitRate(),
			OpsExecuted:   n.OpsExecuted,
			TuplesShipped: n.TuplesShipped,
		}
	}
	out.CPUUtilization /= float64(len(m.Nodes))
	out.DiskUtilization /= float64(len(m.Nodes))
	if total > 0 {
		out.BufferHitRate = hits / total
	}
	out.DiskSkew = skewRatio(out.NodeStats, func(u NodeUtil) float64 { return u.DiskUtil })
	out.CPUSkew = skewRatio(out.NodeStats, func(u NodeUtil) float64 { return u.CPUUtil })
	if m.Injector != nil {
		out.FaultLog = m.Injector.Log()
	}
	if m.Telemetry != nil {
		out.Series = m.Telemetry.Snapshot()
	}
	if m.Heat != nil {
		out.Heat = m.Heat.Snapshot(m.Cfg.Heat.topK())
		out.HotFragments = out.Heat.HotFragments()
	}
	out.Sharing = m.sharingStats()
	if m.Rebalancer != nil {
		r := m.Rebalancer.Report()
		out.Rebalance = &r
	}
	return out
}

// skewRatio reports max/mean of a per-node metric: 1.0 when the load is
// perfectly balanced, approaching the node count when one node does all
// the work. Returns 0 when the metric is identically zero.
func skewRatio(nodes []NodeUtil, metric func(NodeUtil) float64) float64 {
	var max, sum float64
	for _, u := range nodes {
		v := metric(u)
		sum += v
		if v > max {
			max = v
		}
	}
	if sum <= 0 {
		return 0
	}
	return max / (sum / float64(len(nodes)))
}

// resetStats clears utilization and counter state at the start of the
// measurement window.
func (m *Machine) resetStats() {
	for _, n := range m.Nodes {
		n.CPU.ResetStats()
		n.Disk.ResetStats()
		n.Pool.ResetStats()
		n.ResetStats()
	}
	m.Net.ResetStats()
	m.Heat.Reset()
	if m.Host.Shared != nil {
		m.Host.Shared.ResetStats()
	}
}

// sharingStats assembles the shared-scan tally — the host manager's flush
// counters plus the page dedup counters summed over the operator nodes —
// or nil when sharing is off.
func (m *Machine) sharingStats() *exec.SharingStats {
	if m.Host.Shared == nil {
		return nil
	}
	s := m.Host.Shared.Stats()
	for _, n := range m.Nodes {
		s.PagesRequested += n.SharedPagesRequested
		s.PagesRead += n.SharedPagesRead
	}
	return &s
}

func (m *Machine) totalDiskReads() int64 {
	var t int64
	for _, n := range m.Nodes {
		t += n.Disk.Reads()
	}
	return t
}
