package gamma

import (
	"slices"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sim/simtest"
)

// procSubmitter runs one query for a test process: the query's completion
// keeps a copy of its result and resumes the process inside the
// collector's final event.
type procSubmitter struct {
	p   *simtest.Proc
	res exec.QueryResult
}

func (s *procSubmitter) Name() string { return s.p.Name() }

func (s *procSubmitter) QueryDone(res exec.QueryResult) {
	s.res = res
	s.res.ServedBy = slices.Clone(res.ServedBy)
	s.p.HandleEvent()
}

// submit executes n on h for p, parking p until the query completes, and
// returns its result.
func submit(p *simtest.Proc, h *exec.Host, n *plan.Node) exec.QueryResult {
	s := &procSubmitter{p: p}
	h.Submit(s, n)
	p.Park()
	return s.res
}
