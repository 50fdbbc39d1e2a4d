package exec

import (
	"slices"

	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sim/simtest"
)

// procSubmitter runs one query for a test process: the query's completion
// keeps a copy of its result and resumes the process inside the
// collector's final event.
type procSubmitter struct {
	p   *simtest.Proc
	res QueryResult
}

func (s *procSubmitter) Name() string { return s.p.Name() }

func (s *procSubmitter) QueryDone(res QueryResult) {
	s.res = res
	s.res.ServedBy = slices.Clone(res.ServedBy)
	s.p.HandleEvent()
}

// submit executes n for p, parking p until the query completes, and
// returns its result.
func submit(p *simtest.Proc, h *Host, n *plan.Node) QueryResult {
	s := &procSubmitter{p: p}
	h.Submit(s, n)
	p.Park()
	return s.res
}

// diskRead reads physPage from d for p with hw.DiskRead's step form,
// parking p through each wait.
func diskRead(p *simtest.Proc, d *hw.Disk, physPage int, h *obs.FragHeat) error {
	var r hw.DiskRead
	for done := r.Start(d, p, physPage, h); !done; done = r.Step() {
		p.Park()
	}
	return r.Err()
}
