// Package gamma assembles the simulated Gamma database machine of Figure 7
// — P operator nodes (CPU + elevator disk + buffer pool + relation
// fragment) plus a scheduler/host node and terminals — and runs closed
// multiprogramming-level experiments against it, measuring throughput the
// way the paper's Section 7 figures report it.
package gamma

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/catalog"
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
	// ClusteredAttr carries a clustered index on every node (the paper:
	// unique2/B); NonClusteredAttrs carry non-clustered indexes (unique1/A).
	ClusteredAttr     int
	NonClusteredAttrs []int
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

// degradedMode reports whether the scheduler should run with deadlines,
// retries and replica rerouting.
func (c *Config) degradedMode() bool {
	return c.Faults.Enabled() || c.ChainedReplicas
}

// DefaultConfig returns the paper's configuration (Table 2, Section 6).
func DefaultConfig() Config {
	return Config{
		HW:                hw.DefaultParams(),
		Costs:             exec.DefaultCosts(),
		BufferPages:       24,
		Layout:            storage.DefaultLayout(),
		ClusteredAttr:     storage.Unique2,
		NonClusteredAttrs: []int{storage.Unique1},
		Seed:              1,
	}
}

// relationEntry is one declustered relation of the machine together with
// its storage image: every fragment, index and auxiliary tree, laid out
// once by Build or AddRelation and shared read-only by every run.
type relationEntry struct {
	rel       *storage.Relation
	placement core.Placement
	// info is the relation's System Catalog entry, registered into each
	// run's fresh catalog.
	info *catalog.RelationInfo
	// primary[i] is placement slot i's storage on node i. backup[i] is the
	// same slot's chain replica on node core.ChainBackup(i, p); backup is
	// empty without ChainedReplicas. The image's holdings carry no heat
	// accumulators: attach wires each run's own.
	primary []exec.Holding
	backup  []exec.Holding
}

// declustered is a relation split by placement slot: each slot's tuples in
// relation order and, for BERD, each secondary attribute's auxiliary
// entries per slot.
type declustered struct {
	tuples   [][]storage.Tuple
	auxAttrs []int
	aux      map[int]map[int][]storage.AuxEntry
}

// Machine is one assembled simulation instance: build it with Build (and
// optionally AddRelation), then call Run (repeatedly, with increasing MPL
// if desired — each Run uses a fresh engine), and Close it when done.
// Relation and Placement refer to the primary relation, which Run's
// workload targets.
type Machine struct {
	Cfg       Config
	Relation  *storage.Relation
	Placement core.Placement

	Eng     *sim.Engine
	Net     *hw.Network
	Nodes   []*exec.Node
	Host    *exec.Host
	Catalog *catalog.Catalog
	// Injector is armed when Cfg.Faults is enabled (rebuilt on every reset,
	// so each Run gets a fresh fault log); View is the scheduler's health
	// picture, non-nil whenever the machine runs in degraded mode.
	Injector *fault.Injector
	View     *fault.View
	// Telemetry is the windowed time-series sampler, non-nil when
	// Cfg.Telemetry is set (rebuilt on every reset so each run's series
	// start empty). Run and RunServe drive it; direct Eng users may call
	// Sample/Rebase themselves.
	Telemetry *obs.Sampler
	// Heat is the per-fragment accumulator map, non-nil when Cfg.Heat is
	// set (rebuilt on every reset). Run/RunServe reset it at the warm-up
	// boundary and snapshot it into the result.
	Heat *obs.HeatMap
	// Rebalancer is the elastic membership controller, non-nil when
	// Cfg.Elastic is set (rebuilt on every reset). Run/RunServe snapshot
	// its report into the result.
	Rebalancer *rebalance.Controller

	relations []*relationEntry
	// imagePages is each node's page count after the storage image: the
	// next relation's layout, and each run's allocators, start there.
	imagePages []int
	// allocs are the per-physical-node page allocators of the current run,
	// retained so elastic transitions can stage next-generation fragments
	// on the same disks, after the image's pages.
	allocs []*storage.Allocator
}

// distribute assigns every tuple its home processor — one HomeOf call per
// tuple, counted first so every slot's slice is allocated at its exact
// size — and builds the BERD auxiliary assignments when applicable.
func distribute(rel *storage.Relation, placement core.Placement) (*declustered, error) {
	p := placement.Processors()
	homes := make([]int, len(rel.Tuples))
	counts := make([]int, p)
	for i := range rel.Tuples {
		home := placement.HomeOf(rel.Tuples[i])
		if home < 0 || home >= p {
			return nil, fmt.Errorf("gamma: placement sent tuple %d to processor %d of %d",
				rel.Tuples[i].TID, home, p)
		}
		homes[i] = home
		counts[home]++
	}
	d := &declustered{tuples: make([][]storage.Tuple, p)}
	for slot, n := range counts {
		d.tuples[slot] = make([]storage.Tuple, 0, n)
	}
	for i, home := range homes {
		d.tuples[home] = append(d.tuples[home], rel.Tuples[i])
	}
	if berd, ok := placement.(*core.BERDPlacement); ok {
		d.auxAttrs = berd.SecondaryAttrs()
		d.aux = berd.AuxAssignments(rel)
	}
	return d, nil
}

// buildSlot lays out one slot's storage on alloc, in the page order every
// layout uses: the data pages, the clustered index, the non-clustered
// indexes, then one auxiliary tree per secondary attribute in ascending
// attribute order.
func (d *declustered) buildSlot(cfg *Config, slot int, alloc *storage.Allocator) exec.Holding {
	frag := storage.BuildFragment(slot, d.tuples[slot], cfg.ClusteredAttr, cfg.Layout, alloc)
	frag.AddIndex(cfg.ClusteredAttr, alloc)
	for _, a := range cfg.NonClusteredAttrs {
		frag.AddIndex(a, alloc)
	}
	s := exec.Holding{Frag: frag}
	for _, attr := range d.auxAttrs {
		if s.Aux == nil {
			s.Aux = make(map[int]*storage.AuxFragment, len(d.auxAttrs))
		}
		s.Aux[attr] = storage.BuildAux(slot, d.aux[attr][slot], cfg.Layout, alloc)
	}
	return s
}

// Build declusters the relation according to the placement, lays out its
// storage image (fragments, B+-trees, BERD auxiliaries, chain replicas)
// once, and constructs the machine. Every Run shares that image read-only
// and rebuilds only the engine, hardware and buffers, so successive runs
// are independent. The storage-shaping fields of cfg (Layout,
// ClusteredAttr, NonClusteredAttrs, ChainedReplicas) take effect here;
// changing them on Machine.Cfg afterwards does not re-lay the image.
func Build(rel *storage.Relation, placement core.Placement, cfg Config) (*Machine, error) {
	if err := cfg.Validate(placement.Processors()); err != nil {
		return nil, err
	}
	m := &Machine{
		Cfg:        cfg,
		Relation:   rel,
		Placement:  placement,
		imagePages: make([]int, placement.Processors()),
	}
	if err := m.layout(rel, placement); err != nil {
		return nil, err
	}
	m.reset()
	return m, nil
}

// layout distributes a relation and appends its storage image, continuing
// each node's page numbering after the relations laid out before it. Per
// node, the pages come in this order: each slot's storage (see buildSlot),
// then the chain replica the node holds for its predecessor.
func (m *Machine) layout(rel *storage.Relation, placement core.Placement) error {
	d, err := distribute(rel, placement)
	if err != nil {
		return err
	}
	cfg := &m.Cfg
	p := placement.Processors()
	allocs := make([]*storage.Allocator, p)
	for i := range allocs {
		allocs[i] = m.imageAllocator(i)
	}
	e := &relationEntry{
		rel:       rel,
		placement: placement,
		primary:   make([]exec.Holding, p),
		info: &catalog.RelationInfo{
			Name:        rel.Name,
			Cardinality: rel.Cardinality(),
			Placement:   placement,
			Nodes:       make(map[int]catalog.NodeStats, p),
		},
	}
	for i := 0; i < p; i++ {
		e.primary[i] = d.buildSlot(cfg, i, allocs[i])
		e.info.Nodes[i] = nodeStats(cfg, e.primary[i])
	}
	// Chained declustering: mirror slot i's fragment (and auxiliaries) on
	// its chain successor, laid out on the successor's own disk. The
	// replica holds the same tuples keyed by the same primary home, so a
	// rerouted operator returns the identical result.
	if cfg.ChainedReplicas {
		e.backup = make([]exec.Holding, p)
		for i := 0; i < p; i++ {
			if b := core.ChainBackup(i, p); b >= 0 {
				e.backup[i] = d.buildSlot(cfg, i, allocs[b])
			}
		}
	}
	for i, a := range allocs {
		m.imagePages[i] = a.Used()
	}
	m.relations = append(m.relations, e)
	return nil
}

// nodeStats is the catalog's record of one slot's storage: tuple and page
// counts plus index and auxiliary metadata.
func nodeStats(cfg *Config, s exec.Holding) catalog.NodeStats {
	ns := catalog.NodeStats{
		Tuples:    s.Frag.NumTuples(),
		DataPages: s.Frag.NumDataPages(),
	}
	for _, attr := range append([]int{cfg.ClusteredAttr}, cfg.NonClusteredAttrs...) {
		if ix := s.Frag.Index(attr); ix != nil {
			ns.Indexes = append(ns.Indexes, catalog.IndexInfo{
				Attr:      attr,
				Name:      storage.AttrName(attr),
				Clustered: ix.Clustered,
				Pages:     ix.Tree.Pages(),
				Height:    ix.Tree.Height(),
			})
		}
	}
	for _, aux := range s.Aux { // integer sums: map order does not matter
		ns.AuxEntries += aux.Entries
		ns.AuxPages += aux.Tree.Pages()
	}
	return ns
}

// imageAllocator returns a page allocator for node's disk positioned just
// after the storage image's pages (at page 0 on a node the image does not
// touch, such as an elastic standby).
func (m *Machine) imageAllocator(node int) *storage.Allocator {
	a := storage.NewAllocator(m.Cfg.HW.PagesPerDisk())
	if node < len(m.imagePages) {
		a.AllocRun(m.imagePages[node])
	}
	return a
}

// AddRelation declusters a further relation onto the same machine (its
// placement must span the same processors), lays out its storage image
// after the existing relations' pages, and rebuilds the simulation state.
// Relation names must be unique.
func (m *Machine) AddRelation(rel *storage.Relation, placement core.Placement) error {
	if placement.Processors() != m.Placement.Processors() {
		return fmt.Errorf("gamma: relation %s declustered over %d processors, machine has %d",
			rel.Name, placement.Processors(), m.Placement.Processors())
	}
	for _, e := range m.relations {
		if e.rel.Name == rel.Name {
			return fmt.Errorf("gamma: relation %s already on the machine", rel.Name)
		}
	}
	if err := m.layout(rel, placement); err != nil {
		return err
	}
	m.reset()
	return nil
}

// Reset closes the current engine, rebuilds the simulation engine,
// hardware and buffer pools, and reattaches the machine's storage image,
// so direct users of Machine.Eng/Host (single-query probes, joins) can
// start from a cold, deterministic state; Run and RunServe call it
// implicitly.
func (m *Machine) Reset() { m.reset() }

// Close retires the machine's current engine: every process still parked
// on it (operator managers, NIC receivers, terminals, the host) unwinds and
// its goroutine exits, so the run's nodes, buffer pools and event pool
// become garbage. Results already returned by Run, RunServe or
// SimulateLoad are unaffected. Call it once the machine is no longer
// needed; Reset, Run and RunServe close the engine they replace
// themselves. Closing twice is a no-op.
func (m *Machine) Close() {
	if m.Eng != nil {
		m.Eng.Close()
	}
}

// reset gives the next run a cold, deterministic machine: a new engine,
// CPUs, network, disks, buffer pools, operator nodes, host, catalog, heat
// accumulators, fault injector, sampler and rebalancer. The storage image
// is not rebuilt: the nodes attach the image's read-only fragments and
// auxiliary trees, and each disk's allocator resumes after the image's
// pages. The previous engine is closed first, so its server processes
// (operator managers, NIC receivers) exit instead of staying parked.
func (m *Machine) reset() {
	m.Close()
	cfg := m.Cfg
	p := m.Placement.Processors()
	// Elasticity builds one standby node per scheduled Join beyond the
	// initial membership; pPhys is the physical node count. Without an
	// elastic spec pPhys == p and the layout below is unchanged.
	pPhys := p
	if cfg.Elastic != nil {
		pPhys += cfg.Elastic.schedule().Joins()
	}
	eng := sim.New()
	streams := rng.NewFactory(cfg.Seed)

	// Operator nodes carry CPUs; the host endpoint (index pPhys) is an
	// uncharged coordination module per Figure 7 (nil CPU).
	cpus := make([]*hw.CPU, pPhys+1)
	for i := 0; i < pPhys; i++ {
		cpus[i] = hw.NewCPU(eng, fmt.Sprintf("cpu%d", i), cfg.HW)
		cpus[i].SetNode(i)
	}
	net := hw.NewNetwork(eng, cfg.HW, cpus)

	cat := catalog.New()
	nodes := make([]*exec.Node, pPhys)
	allocs := make([]*storage.Allocator, pPhys)
	for i := 0; i < pPhys; i++ {
		disk := hw.NewDisk(eng, fmt.Sprintf("disk%d", i), cfg.HW, cpus[i],
			streams.Stream(fmt.Sprintf("disk%d", i)))
		disk.SetNode(i)
		pool := buffer.NewPool(eng, fmt.Sprintf("buf%d", i), cfg.BufferPages, disk)
		nodes[i] = exec.NewNode(eng, i, cfg.HW, cfg.Costs, net, cpus[i], disk, pool)
		allocs[i] = m.imageAllocator(i)
	}

	// Fragment heat accounting: one accumulator per physical fragment,
	// wired into the holdings attached below. A heat-free machine leaves
	// them nil, so the execution hot path sees only nil handles (whose
	// increments no-op).
	m.Heat = nil
	if cfg.Heat != nil {
		m.Heat = obs.NewHeatMap()
	}

	// Attach every relation's storage image to its nodes and register it
	// in the System Catalog (Figure 7). Standby nodes (index >= p) start
	// empty: they hold no fragments until a join transition stages a new
	// generation onto them.
	for _, e := range m.relations {
		name := e.rel.Name
		for i, s := range e.primary {
			m.attach(nodes[i], 0, name, exec.Primary, s)
		}
		for i, s := range e.backup {
			if b := core.ChainBackup(i, p); b >= 0 {
				m.attach(nodes[b], 0, name, exec.Backup, s)
			}
		}
		if err := cat.Register(e.info); err != nil {
			panic(err) // unreachable: names deduplicated in AddRelation
		}
	}
	for _, n := range nodes {
		n.Start()
	}

	host := exec.NewHost(eng, pPhys, cfg.HW, net, cfg.Costs)
	for _, entry := range m.relations {
		host.AddRelation(entry.rel.Name, entry.placement)
	}
	host.BERDFetchByTID = cfg.BERDFetchByTID
	host.Start()

	// Degraded mode and fault injection. Everything here is gated so that a
	// machine without faults or replicas takes none of these branches and
	// draws from no extra rng streams: its schedule stays byte-identical.
	m.Injector, m.View = nil, nil
	if cfg.degradedMode() {
		view := fault.NewView(pPhys)
		backup := func(int, int) int { return -1 }
		if cfg.ChainedReplicas {
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
			if cfg.Faults.NetDropP > 0 || cfg.Faults.NetDupP > 0 {
				net.EnableFaults(streams.Stream("fault.net"), cfg.Faults.NetDropP, cfg.Faults.NetDupP)
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
	m.Catalog = cat
	m.allocs = allocs

	// Elastic membership: the controller process walks the schedule on the
	// sim clock, staging each transition through elasticExec and copying
	// pages through the per-node pools/disks at the configured throttle.
	// Wired last so the executor sees the fully-assembled machine.
	m.Rebalancer = nil
	if cfg.Elastic != nil {
		standbys := make([]int, 0, pPhys-p)
		for i := p; i < pPhys; i++ {
			standbys = append(standbys, i)
		}
		cp := &rebalance.Copier{
			IO:              elasticIO{nodes: nodes},
			RatePagesPerSec: cfg.Elastic.rate(),
			PageBytes:       cfg.HW.PageSize,
		}
		topo := make([]int, p)
		for i := range topo {
			topo[i] = i
		}
		ctl := rebalance.NewController(eng, cfg.Elastic.schedule(), p, standbys, &elasticExec{m: m, topo: topo}, cp)
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
