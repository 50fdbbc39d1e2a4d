package gamma

import (
	"fmt"

	"repro/internal/core"
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

	loader := m.Nodes[0]
	done := false
	var simErr error
	// execute charges instr on cpu for the process p and parks p through
	// queueing and service.
	execute := func(p *sim.Proc, cpu *hw.CPU, instr int) {
		if cpu.Charge(p, instr, hw.PrioNormal) {
			p.Park()
		}
	}

	eng.Spawn("loader", func(p *sim.Proc) {
		defer func() { done = true }()
		// Analysis passes: sequential scans of the source relation with
		// per-page processing (grid construction / auxiliary extraction).
		for pass := 1; pass < res.ScanPasses; pass++ {
			for pg := 0; pg < sourcePages; pg++ {
				if err := loader.Disk.ReadHeat(p, pg, nil); err != nil {
					simErr = err
					return
				}
				execute(p, loader.CPU, params.ReadPageInstr)
			}
		}
		// Placement pass: scan again, ship each node its tuples in full
		// packets, and have each node write its fragment and indexes.
		for pg := 0; pg < sourcePages; pg++ {
			if err := loader.Disk.ReadHeat(p, pg, nil); err != nil {
				simErr = err
				return
			}
			execute(p, loader.CPU, params.ReadPageInstr)
		}
		// Shipping: every tuple crosses the network to its home (tuples
		// landing on node 0 stay local). Modeled as the bulk packet count
		// per destination rather than per-tuple sends.
		// Node i < p receives slot i's primary holding; standby nodes
		// (i >= p) receive nothing.
		primary := m.img.rels[0].primary
		for node := 1; node < len(primary); node++ { // fixed order: determinism
			bytes := params.TupleBytes(primary[node].Frag.NumTuples())
			if bytes == 0 {
				continue
			}
			// Payload-free bulk transfer: the receiving node's operator
			// manager ignores fragments without a payload.
			var s hw.Send
			for done := s.Start(m.Net, p, loader.CPU, hw.Message{From: 0, To: node, Bytes: bytes}); !done; done = s.Step() {
				p.Park()
			}
		}
		// Each node writes its data, index and auxiliary pages. The writes
		// proceed in parallel across nodes; the loader parks until the last
		// writer to finish wakes it.
		writing := len(m.Nodes)
		for i, n := range m.Nodes {
			node := n
			pages := 0
			if i < len(primary) {
				pages = primary[i].Frag.FootprintPages()
				for _, aux := range primary[i].Aux {
					pages += aux.FootprintPages()
				}
			}
			res.PagesWritten += pages
			eng.Spawn(fmt.Sprintf("load.write%d", i), func(wp *sim.Proc) {
				defer func() {
					if writing--; writing == 0 {
						eng.Wake(p)
					}
				}()
				for pg := 0; pg < pages; pg++ {
					execute(wp, node.CPU, params.WritePageInstr)
					if err := node.Disk.Write(wp, pg); err != nil {
						simErr = err
						return
					}
				}
			})
		}
		p.Park()
	})

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
