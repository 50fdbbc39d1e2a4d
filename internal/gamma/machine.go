// Package gamma assembles the simulated Gamma database machine of Figure 7
// — P operator nodes (CPU + elevator disk + buffer pool + relation
// fragment) plus a scheduler/host node and terminals — and runs closed
// multiprogramming-level experiments against it, measuring throughput the
// way the paper's Section 7 figures report it.
package gamma

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/rebalance"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Config fixes the machine's hardware and software constants.
type Config struct {
	HW    hw.Params
	Costs exec.Costs
	// BufferPages is the per-node buffer pool size in pages. The default
	// (24) keeps index roots and interiors resident while data pages still
	// pay I/O, matching the paper's disk-bound query costs; see DESIGN.md.
	BufferPages int
	// Layout of fragments and indexes.
	Layout storage.Layout
	// BERDFetchByTID switches BERD's second step to per-TID fetches
	// instead of predicate re-execution (ablation; see exec.Host).
	BERDFetchByTID bool
	// Telemetry, when non-nil, arms windowed time-series sampling: every
	// reset builds a fresh obs.Sampler with per-node disk/CPU probes and
	// skew gauges, Run drives it on sim-time windows, and results carry the
	// series snapshot. Nil (the default) leaves the simulation schedule
	// byte-identical to a telemetry-free build.
	Telemetry *TelemetrySpec
	// Heat, when non-nil, arms fragment-granularity access accounting:
	// every reset builds a fresh obs.HeatMap whose accumulators the
	// execution layer increments allocation-free, results carry a
	// HeatSnapshot plus the HotFragments report, and — when Telemetry is
	// also armed — per-fragment decayed-heat series join the sampler. Nil
	// (the default) attaches no accumulators, so the simulation schedule
	// and all output stay byte-identical to a heat-free build.
	Heat *HeatSpec
	// Sharing, when non-nil, arms the shared-scan manager: concurrent
	// selections hitting the same fragment within the batching window are
	// predicate-grouped into one disk pass (exec.SharedScans), and results
	// carry SharingStats. Nil (the default) leaves the simulation schedule
	// byte-identical to a build without sharing support. Composes with
	// Faults/ChainedReplicas: batches are tagged with their members'
	// attempt epochs, so the scheduler drops stale batch replies
	// the same way it drops stale lone-operator replies.
	Sharing *SharingSpec
	// Elastic, when non-nil, arms elastic cluster membership: the machine
	// builds one standby node per scheduled Join, installs a
	// rebalance.Controller that executes the membership schedule as
	// stage → throttled copy → atomic cutover, and promotes permanent node
	// crashes into repair tasks. Nil (the default) leaves the simulation
	// schedule byte-identical to a build without elasticity support.
	Elastic *ElasticSpec
	// Seed drives all machine-level randomness (disk latencies, workload).
	Seed int64

	// Faults, when Enabled, arms the deterministic fault injector: the spec's
	// events are applied as ordinary simulation events and the scheduler runs
	// in degraded mode. Nil (the default) leaves runs byte-identical to a
	// build without fault support.
	Faults *fault.Spec
	// ChainedReplicas mirrors every node's fragments (and BERD auxiliaries)
	// on its chain successor, giving degraded-mode execution a backup to
	// reroute to. Implied storage cost: 2x pages per node.
	ChainedReplicas bool
}

// DefaultConfig returns the paper's configuration (Table 2, Section 6).
func DefaultConfig() Config {
	return Config{
		HW:          hw.DefaultParams(),
		Costs:       exec.DefaultCosts(),
		BufferPages: 24,
		Layout:      storage.DefaultLayout(),
		Seed:        1,
	}
}

// Machine is one assembled simulation instance: build it with Build (and
// optionally AddRelation), or over an existing storage image with New,
// then call Run (repeatedly, with increasing MPL if desired — each Run
// uses a fresh engine), and Close it when done. Relation and Placement
// refer to the primary relation, which Run's workload targets.
type Machine struct {
	Cfg       Config
	Relation  *storage.Relation
	Placement core.Placement

	Eng   *sim.Engine
	Net   *hw.Network
	Nodes []*exec.Node
	Host  *exec.Host
	// Injector is armed when Cfg.Faults is enabled (rebuilt on every reset,
	// so each Run gets a fresh fault log); View is the scheduler's health
	// picture, non-nil whenever the machine runs in degraded mode.
	Injector *fault.Injector
	View     *fault.View
	// Telemetry is the windowed time-series sampler, non-nil when
	// Cfg.Telemetry is set (rebuilt on every reset so each run's series
	// start empty). Run and RunServe drive it through their exec.Window;
	// direct Eng users may call Sample/Rebase themselves.
	Telemetry *obs.Sampler
	// Heat is the per-fragment accumulator map, non-nil when Cfg.Heat is
	// set (rebuilt on every reset). Run/RunServe reset it at the warm-up
	// boundary and snapshot it into the result.
	Heat *obs.HeatMap
	// Rebalancer is the elastic membership controller, non-nil when
	// Cfg.Elastic is set (rebuilt on every reset). Run/RunServe snapshot
	// its report into the result.
	Rebalancer *rebalance.Controller

	// img is the storage image every run attaches; AddRelation replaces it
	// with a new one and nothing else writes it.
	img *Image
	// allocs are the current run's page allocators, one per physical node,
	// on which elastic transitions stage generations after the image.
	allocs []*storage.Allocator
	// streams are the current run's random-stream factories, released when
	// its engine closes.
	streams []*rng.Factory
}

// Build declusters the relation according to the placement, lays out its
// storage image (fragments, B+-trees, BERD auxiliaries, chain replicas)
// once, and constructs the machine with a cold engine ready, like New
// followed by Reset. Every Run shares that image read-only and rebuilds
// only the engine, hardware and buffers, so successive runs are
// independent. The storage-shaping fields of cfg (Layout,
// ChainedReplicas, HW.PagesPerDisk) take effect here: the image records
// them, and resets and elastic staging read them from the image, not from
// Machine.Cfg.
func Build(rel *storage.Relation, placement core.Placement, cfg Config) (*Machine, error) {
	img, err := NewImage(rel, placement, cfg)
	if err != nil {
		return nil, err
	}
	m := newMachine(img, cfg)
	m.reset()
	return m, nil
}

// New returns a machine over img, which any number of machines may share:
// its primary relation and placement are the image's first. cfg must
// agree with the image on Layout, ChainedReplicas and HW.PagesPerDisk.
// The machine has no engine until its first Reset, Run or RunServe, like
// a machine after Close, so a caller about to Run pays for one reset, not
// two.
func New(img *Image, cfg Config) (*Machine, error) {
	procs := img.rels[0].placement.Processors()
	if err := cfg.Validate(procs); err != nil {
		return nil, err
	}
	switch {
	case cfg.Layout != img.layout:
		return nil, fmt.Errorf("gamma: config layout %+v, image laid out with %+v", cfg.Layout, img.layout)
	case cfg.ChainedReplicas != img.chained:
		return nil, fmt.Errorf("gamma: config chained replicas %t, image laid out with %t", cfg.ChainedReplicas, img.chained)
	case cfg.HW.PagesPerDisk() != img.pagesPerDisk:
		return nil, fmt.Errorf("gamma: config has %d pages per disk, image laid out for %d",
			cfg.HW.PagesPerDisk(), img.pagesPerDisk)
	}
	return newMachine(img, cfg), nil
}

// newMachine returns a machine over img with no engine yet.
func newMachine(img *Image, cfg Config) *Machine {
	first := img.rels[0]
	return &Machine{Cfg: cfg, Relation: first.rel, Placement: first.placement, img: img}
}

// AddRelation declusters a further relation onto the same machine (its
// placement must span the same processors), lays it out after the existing
// relations' pages in a new storage image, and rebuilds the simulation
// state. Relation names must be unique.
func (m *Machine) AddRelation(rel *storage.Relation, placement core.Placement) error {
	if placement.Processors() != m.Placement.Processors() {
		return fmt.Errorf("gamma: relation %s declustered over %d processors, machine has %d",
			rel.Name, placement.Processors(), m.Placement.Processors())
	}
	for _, r := range m.img.rels {
		if r.rel.Name == rel.Name {
			return fmt.Errorf("gamma: relation %s already on the machine", rel.Name)
		}
	}
	img, err := m.img.withRelation(rel, placement)
	if err != nil {
		return err
	}
	m.img = img
	m.reset()
	return nil
}

// Reset closes the current engine, rebuilds the simulation engine,
// hardware and buffer pools, and reattaches the machine's storage image,
// so direct users of Machine.Eng/Host (single-query probes, joins) can
// start from a cold, deterministic state; Run and RunServe call it
// implicitly. A machine from New needs it (or a Run) before Eng, Nodes
// or Host are set.
func (m *Machine) Reset() { m.reset() }

// Close retires the machine's current engine, dropping its pending events
// and every handler waiting on it (operator managers, NIC receivers,
// terminals, the host), so the run's nodes, buffer pools and event pool
// become garbage; its operator and selection request records go to
// exec's spare lists, and the run's random streams return their generator
// states to rng's free list, for the next machine. Results already returned
// by Run, RunServe or SimulateLoad are unaffected. Call it once the
// machine is no longer needed; Reset, Run and RunServe close the engine
// they replace themselves. Closing twice is a no-op.
func (m *Machine) Close() {
	if m.Eng != nil {
		m.Eng.Close()
		for _, n := range m.Nodes {
			n.Release()
		}
		m.Host.Release()
	}
	for _, f := range m.streams {
		f.Release()
	}
	clear(m.streams)
	m.streams = m.streams[:0]
}

// newStreams returns a stream factory rooted at seed whose streams the
// machine releases when it closes.
func (m *Machine) newStreams(seed int64) *rng.Factory {
	f := rng.NewFactory(seed)
	m.streams = append(m.streams, f)
	return f
}

// reset gives the next run a cold, deterministic machine: a new engine,
// CPUs, network, disks, buffer pools, operator nodes, host, heat
// accumulators, fault injector, sampler and rebalancer. The storage image
// is not rebuilt: the nodes attach the image's read-only fragments and
// auxiliary trees, and each disk's allocator resumes after the image's
// pages. The previous engine is closed first, which hands its records and
// streams on.
func (m *Machine) reset() {
	m.Close()
	cfg, img := m.Cfg, m.img
	p := m.Placement.Processors()
	// Elasticity builds one standby node per scheduled Join beyond the
	// initial membership; pPhys is the physical node count. Without an
	// elastic spec pPhys == p and the layout below is unchanged.
	pPhys := p
	if cfg.Elastic != nil {
		pPhys += cfg.Elastic.schedule().Joins()
	}
	eng := sim.New()
	streams := m.newStreams(cfg.Seed)

	// Operator nodes carry CPUs; the host endpoint (index pPhys) is an
	// uncharged coordination module per Figure 7 (nil CPU).
	cpus := make([]*hw.CPU, pPhys+1)
	for i := 0; i < pPhys; i++ {
		cpus[i] = hw.NewCPU(eng, fmt.Sprintf("cpu%d", i), cfg.HW)
		cpus[i].SetNode(i)
	}
	net := hw.NewNetwork(eng, cfg.HW, cpus)

	nodes := make([]*exec.Node, pPhys)
	for i := 0; i < pPhys; i++ {
		disk := hw.NewDisk(eng, fmt.Sprintf("disk%d", i), cfg.HW, cpus[i],
			streams.Stream(fmt.Sprintf("disk%d", i)))
		disk.SetNode(i)
		pool := buffer.NewPool(eng, cfg.BufferPages, disk)
		nodes[i] = exec.NewNode(eng, i, cfg.HW, cfg.Costs, net, cpus[i], disk, pool)
	}

	// Fragment heat accounting: one accumulator per physical fragment,
	// wired into the holdings attached below. A heat-free machine leaves
	// them nil, so the execution hot path sees only nil handles (whose
	// increments no-op).
	m.Heat = nil
	if cfg.Heat != nil {
		m.Heat = obs.NewHeatMap()
	}

	// Attach every relation's storage image to its nodes. Standby nodes
	// (index >= p) start empty: they hold no fragments until a join
	// transition stages a new generation onto them.
	slots := identitySlots(p)
	for _, r := range img.rels {
		attach(nodes, m.Heat, 0, r.rel.Name, r.holdings, slots)
	}
	for _, n := range nodes {
		n.Start()
	}

	host := exec.NewHost(eng, pPhys, cfg.HW, net, cfg.Costs)
	for _, r := range img.rels {
		host.AddRelation(r.rel.Name, r.placement)
	}
	host.BERDFetchByTID = cfg.BERDFetchByTID
	host.Nodes = nodes
	host.Start()

	// Degraded mode and fault injection. Everything here is gated so that a
	// machine without faults or replicas takes none of these branches and
	// draws from no extra rng streams: its schedule stays byte-identical.
	m.Injector, m.View = nil, nil
	if cfg.Faults.Enabled() || img.chained {
		view := fault.NewView(pPhys)
		backup := func(int, int) int { return -1 }
		if img.chained {
			// slots is the live membership size captured by the collector
			// (zero on the build-time identity topology, meaning p).
			backup = func(slot, slots int) int {
				if slots <= 0 {
					slots = p
				}
				return core.ChainBackup(slot, slots)
			}
		}
		host.Degraded = &exec.Degraded{
			Policy: exec.DefaultRetryPolicy(), View: view, Backup: backup,
			Jitter: streams.Stream("retry.jitter"),
		}
		m.View = view
		if cfg.Faults.Enabled() {
			targets := fault.Targets{
				Disks: make([]fault.DiskTarget, pPhys),
				Nodes: make([]fault.NodeTarget, pPhys),
				Net:   net,
			}
			for i, n := range nodes {
				targets.Disks[i] = n.Disk
				targets.Nodes[i] = n
			}
			m.Injector = fault.NewInjector(eng, *cfg.Faults, view, targets, streams)
			m.Injector.Start()
		}
	}

	// Shared scans: compose with degraded mode via attempt-tagged batches.
	if cfg.Sharing != nil {
		host.EnableSharing(cfg.Sharing.window())
	}

	m.Telemetry = nil
	if cfg.Telemetry != nil {
		m.Telemetry = newMachineSampler(cfg.Telemetry, nodes)
		if m.Heat != nil {
			registerHeatSeries(m.Telemetry, m.Heat, cfg.Heat, m.Placement.Name())
		}
	}

	m.Eng = eng
	m.Net = net
	m.Nodes = nodes
	m.Host = host
	m.allocs = img.allocators(pPhys)

	// Elastic membership: the controller process walks the schedule on the
	// sim clock, staging each transition through elasticExec and copying
	// pages through the per-node pools/disks at the configured throttle.
	// Wired last so the executor sees the fully-assembled machine.
	m.Rebalancer = nil
	if cfg.Elastic != nil {
		standbys := identitySlots(pPhys)[p:]
		cp := &rebalance.Copier{
			IO:              &elasticIO{nodes: nodes},
			RatePagesPerSec: cfg.Elastic.rate(),
			PageBytes:       cfg.HW.PageSize,
		}
		ctl := rebalance.NewController(eng, cfg.Elastic.schedule(), p, standbys, &elasticExec{m: m, topo: slots}, cp)
		ctl.Start()
		m.Rebalancer = ctl
		if m.Injector != nil {
			m.Injector.OnEvent = promoteCrashes(ctl)
		}
		if m.Telemetry != nil {
			registerRebalanceSeries(m.Telemetry, cp)
		}
	}
}
