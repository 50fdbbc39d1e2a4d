package rebalance

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/sim"
)

// IO is the page-I/O surface the copier drives, in step form; the machine
// layer implements it over the per-node buffer pools (reads, so migration
// competes for — and warms — the source cache) and disks (writes). Start
// begins reading (write false) or writing node's page for w and reports
// whether the I/O is already done; otherwise each wait ends by scheduling
// w, which calls Step in that event, until Step reports it done. Err is
// then its outcome.
type IO interface {
	Start(w hw.Waiter, write bool, node, page int) bool
	Step() bool
	Err() error
}

// DefaultRatePagesPerSec is the migration throttle default: roughly a
// third of one disk's sequential page rate, so a rebalance visibly
// competes with foreground queries without starving them.
const DefaultRatePagesPerSec = 2000

// Copier executes move plans as throttled background I/O, in step form,
// for the controller; the live counters feed telemetry gauges (sampled on
// the same sim clock, so no synchronization is needed).
type Copier struct {
	IO IO
	// RatePagesPerSec budgets the copy I/O; <= 0 selects the default.
	RatePagesPerSec int
	// PageBytes sizes BytesCopied accounting (a disk page).
	PageBytes int

	// Live counters (read by telemetry probes mid-run).
	Backlog     int64 // pages still to copy in the current transition
	PagesCopied int64
	BytesCopied int64
	Errors      int64

	// The copy in progress: its plan, the page it is at (page i of move
	// mv, its reads first), whether that page's I/O or its throttle gap is
	// under way, and the first page error.
	eng      *sim.Engine
	w        hw.Waiter
	plan     Plan
	mv, i    int
	io       bool
	firstErr error
}

// gap returns the inter-page throttle interval.
func (c *Copier) gap() sim.Duration {
	rate := c.RatePagesPerSec
	if rate <= 0 {
		rate = DefaultRatePagesPerSec
	}
	return sim.Duration(float64(sim.Second) / float64(rate))
}

// Start begins copying every page of the plan in plan order for w,
// holding the throttle gap before each page so the budget is an upper
// bound on I/O issue rate, and reports whether the copy is already done.
// Otherwise each wait ends by scheduling w, which calls Step in that
// event, until Step reports the copy done. Page errors (e.g. a source
// disk failing mid-copy) are counted, and Err reports the first once the
// plan completes; the controller records it on the task rather than
// aborting the transition, since the remaining moves are independent.
func (c *Copier) Start(eng *sim.Engine, w hw.Waiter, plan Plan) bool {
	c.Backlog = int64(plan.Pages())
	c.eng, c.w, c.plan = eng, w, plan
	c.mv, c.i, c.firstErr = 0, 0, nil
	return c.next()
}

// Step continues the copy in the event that ended its wait: a gap that is
// over starts its page's I/O, and an I/O that is done books the page and
// holds the next gap.
func (c *Copier) Step() bool {
	pg, write := c.page()
	if !c.io {
		c.io = true
		if !c.IO.Start(c.w, write, pg.Node, pg.Page) {
			return false
		}
	} else if !c.IO.Step() {
		return false
	}
	if err := c.IO.Err(); err != nil {
		verb := "read"
		if write {
			verb = "write"
		}
		c.Errors++
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("rebalance: %s n%d p%d: %w", verb, pg.Node, pg.Page, err)
		}
	}
	c.step()
	c.i++
	return c.next()
}

// Err reports the first page error of a copy that is done.
func (c *Copier) Err() error { return c.firstErr }

// page is the page the copy is at, and whether it is a write.
func (c *Copier) page() (PageRef, bool) {
	mv := &c.plan.Moves[c.mv]
	if c.i < len(mv.Reads) {
		return mv.Reads[c.i], false
	}
	return mv.Writes[c.i-len(mv.Reads)], true
}

// next holds the gap before the next page and reports true when no page
// is left.
func (c *Copier) next() bool {
	for ; c.mv < len(c.plan.Moves); c.mv, c.i = c.mv+1, 0 {
		if mv := &c.plan.Moves[c.mv]; c.i < len(mv.Reads)+len(mv.Writes) {
			c.io = false
			c.eng.ScheduleHandler(c.gap(), c.w)
			return false
		}
	}
	c.Backlog = 0
	c.w, c.plan = nil, Plan{}
	return true
}

// step books one copied page. It is the copier's per-page hot path and
// must stay allocation-free (guarded by TestMigrationStepAllocs).
func (c *Copier) step() {
	c.Backlog--
	c.PagesCopied++
	c.BytesCopied += int64(c.PageBytes)
}
