package gamma

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/hw"
	"repro/internal/sim"
)

// LoadResult reports the simulated cost of declustering the relation — the
// partitioning process Section 3.1 describes. It is measured on a fresh
// machine: the source relation is scanned sequentially from node 0's disk,
// tuples are shipped to their home processors in full packets, each node
// writes its fragment and builds its indexes, and (for BERD) the auxiliary
// relations are constructed with a second scan-and-ship pass. MAGIC's
// directory construction also requires an extra analysis scan of the
// relation (the grid file insertion phase) before any tuple moves.
type LoadResult struct {
	Strategy string
	// ScanPasses over the source relation the strategy needs (range: 1;
	// BERD: 2 — base + auxiliary; MAGIC: 2 — grid construction + placement).
	ScanPasses int
	// Elapsed simulated time for the whole load.
	Elapsed sim.Duration
	// PagesWritten across all nodes (fragments + indexes + auxiliaries).
	PagesWritten int
	// PacketsShipped across the interconnect.
	PacketsShipped int64
}

// SimulateLoad measures the declustering cost of this machine's placement.
// It resets the machine afterwards so subsequent Runs start clean.
func (m *Machine) SimulateLoad() (LoadResult, error) {
	m.reset()
	cfg := m.Cfg
	eng := m.Eng
	params := cfg.HW

	res := LoadResult{Strategy: m.Placement.Name(), ScanPasses: 1}
	switch m.Placement.(type) {
	case *core.BERDPlacement:
		res.ScanPasses = 2 // base pass + auxiliary construction pass
	case *core.MAGICPlacement:
		res.ScanPasses = 2 // grid-file analysis pass + placement pass
	}

	// Source relation: stored contiguously on node 0's disk before
	// declustering. It occupies sourcePages sequential pages.
	sourcePages := params.PagesForTuples(m.Relation.Cardinality())
	if sourcePages > params.PagesPerDisk() {
		return res, fmt.Errorf("gamma: source relation (%d pages) exceeds one disk", sourcePages)
	}

	// The loader scans the source relation on node 0 once per pass (an
	// analysis pass and the placement pass scan alike), ships every other
	// node its primary holding, then starts one writer per node, which
	// writes its data, index and auxiliary pages, and waits for the last.
	done := false
	var simErr error
	primary := m.img.rels[0].primary
	writing := len(m.Nodes)
	wrote := func(err error) {
		if err != nil {
			simErr = err
		}
		if writing--; writing == 0 {
			eng.Schedule(0, func() { done = true })
		}
	}
	ship := &loadShip{m: m, primary: primary, next: func() {
		for i, n := range m.Nodes {
			pages := 0
			if i < len(primary) {
				pages = primary[i].Frag.FootprintPages()
				for _, aux := range primary[i].Aux {
					pages += aux.FootprintPages()
				}
			}
			res.PagesWritten += pages
			eng.ScheduleHandler(0, &loadPass{node: n, write: true, instr: params.WritePageInstr, pages: pages, next: wrote})
		}
	}}
	scan := &loadPass{node: m.Nodes[0], instr: params.ReadPageInstr, pages: res.ScanPasses * sourcePages, src: sourcePages,
		next: func(err error) {
			if err != nil {
				simErr, done = err, true
				return
			}
			ship.HandleEvent()
		}}
	eng.ScheduleHandler(0, scan)

	if err := eng.RunUntil(sim.Time(6 * 3600 * sim.Second)); err != nil {
		return res, err
	}
	if !done {
		simErr = fmt.Errorf("gamma: load did not complete within the simulated bound")
	}
	res.Elapsed = sim.Duration(eng.Now())
	for i := range m.Nodes { // the reset above started every count at zero
		res.PacketsShipped += m.Net.Sent(i)
	}
	m.reset() // leave the machine clean for measurement runs
	return res, simErr
}

// loadPass is one node's page loop in SimulateLoad, a handler. Each page
// takes two steps: a scan reads the page (page i modulo src), then
// charges its processing; a writer charges first, then writes. next runs
// in the event in which the last page, or a failed one, is done.
type loadPass struct {
	hw.Background
	pageIO     // the page's disk access, once started
	node       *exec.Node
	write      bool
	instr      int // CPU instructions per page
	pages, src int
	pg, stage  int  // the page, and how many of its steps have begun
	disk       bool // the page's disk access is in progress
	read       hw.DiskRead
	wr         hw.DiskWrite
	err        error
	next       func(err error)
}

// HandleEvent runs the loop from the event that ended its last wait to
// its next wait. It implements sim.Handler and is not meant to be called
// directly.
func (p *loadPass) HandleEvent() {
	if p.disk {
		if !p.Step() {
			return
		}
		p.disk, p.err = false, p.Err()
	}
	for p.err == nil {
		if p.stage == 2 {
			p.pg, p.stage = p.pg+1, 0
		}
		if p.pg == p.pages {
			break
		}
		p.stage++
		if p.write != (p.stage == 1) { // the disk access: a scan's first step, a writer's second
			var failed bool
			if p.write {
				p.pageIO, failed = &p.wr, p.wr.Start(p.node.Disk, p, p.pg)
			} else {
				p.pageIO, failed = &p.read, p.read.Start(p.node.Disk, p, p.pg%p.src, nil)
			}
			if !failed {
				p.disk = true
				return
			}
			p.err = p.Err()
		} else if p.node.CPU.Charge(p, p.instr, hw.PrioNormal) {
			return
		}
	}
	p.next(p.err)
}

// loadShip ships every node its primary holding from node 0, in node
// order, as the bulk packet count of its tuples (tuples landing on node
// 0 stay local), then runs next. A payload-free transfer: the receiving
// node's operator manager ignores fragments without a payload.
type loadShip struct {
	hw.Background
	m       *Machine
	primary []exec.Holding
	node    int
	send    hw.Send
	sending bool
	next    func()
}

// HandleEvent ships until a send waits. It implements sim.Handler and is
// not meant to be called directly.
func (s *loadShip) HandleEvent() {
	if s.sending && !s.send.Step() {
		return
	}
	s.sending = false
	for s.node+1 < len(s.primary) {
		s.node++
		bytes := s.m.Cfg.HW.TupleBytes(s.primary[s.node].Frag.NumTuples())
		if bytes > 0 && !s.send.Start(s.m.Net, s, s.m.Nodes[0].CPU, hw.Message{From: 0, To: s.node, Bytes: bytes}) {
			s.sending = true
			return
		}
	}
	s.next()
}
