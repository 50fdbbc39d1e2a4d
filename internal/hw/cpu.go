package hw

import (
	"fmt"

	"repro/internal/sim"
)

// Priority classes for CPU requests. The paper's CPU enforces FCFS
// non-preemptive scheduling on all requests except byte transfers between
// the disk I/O channel's FIFO buffer and memory, which interrupt the CPU.
// We approximate interrupts with a head-of-line priority class (DESIGN.md
// §2.5): transfers are served before any queued operator work but do not
// preempt the request currently in service.
const (
	PrioNormal   = 0 // operator work: predicate evaluation, page processing
	PrioTransfer = 1 // disk FIFO <-> memory byte transfers, network interrupts
)

// Waiter is what the hardware's resumable step forms (CPU.Charge,
// DiskRead, DiskWrite, Send, and the buffer pool's read above them) run
// for: a sim.Handler that each wait schedules when it ends. It carries the
// query its requests are tagged with and an error slot, where a wait that
// fails after it began (a disk that fail-stops under a queued read) puts
// its error before scheduling it.
type Waiter interface {
	sim.Handler
	QID() int64
	ErrSlot() *error
}

// Background is the Waiter state of a handler that serves no query, such
// as a rebalance copy or a load: its requests carry query 0, and it keeps
// the error slot. A handler embeds it to implement QID and ErrSlot.
type Background struct{ err error }

// QID reports that the handler serves no query.
func (b *Background) QID() int64 { return 0 }

// ErrSlot is the handler's error slot.
func (b *Background) ErrSlot() *error { return &b.err }

// CPU is one node's processor: a 3 MIPS FCFS facility with a transfer
// priority class.
type CPU struct {
	params Params
	fac    *sim.Facility
}

// NewCPU creates the CPU for the named node.
func NewCPU(e *sim.Engine, name string, params Params) *CPU {
	return &CPU{params: params, fac: sim.NewFacility(e, name)}
}

// SetNode records the node id for observability: CPU service spans land on
// that node's "cpu" track.
func (c *CPU) SetNode(node int) { c.fac.SetMeta(node, "cpu") }

// Charge requests instr instructions at prio on w's behalf, tagged with
// w's query, and reports whether w must wait. If so, w runs when the
// service completes. Zero instructions cost nothing and schedule nothing.
func (c *CPU) Charge(w Waiter, instr, prio int) bool {
	d, ok := c.service(instr)
	if ok {
		c.fac.Request(w, d, prio, w.QID())
	}
	return ok
}

// service is the CPU time of instr instructions, and whether they take a
// service at all: any positive count does, even one whose time rounds to
// zero.
func (c *CPU) service(instr int) (sim.Duration, bool) {
	if instr < 0 {
		panic(fmt.Sprintf("hw: negative instruction count %d on %s", instr, c.fac.Name()))
	}
	return c.params.InstrTime(instr), instr > 0
}

// chargeTime requests a precomputed service duration at prio for w, for
// costs Table 2 expresses directly in time (message protocol processing)
// rather than instructions, and reports whether w must wait.
func (c *CPU) chargeTime(w Waiter, d sim.Duration, prio int) bool {
	if d == 0 {
		return false
	}
	c.fac.Request(w, d, prio, w.QID())
	return true
}

// Utilization reports the fraction of time the CPU has been busy.
func (c *CPU) Utilization() float64 { return c.fac.Utilization() }

// BusySeconds reports cumulative busy time in simulated seconds since the
// last stats reset (the windowed-utilization probe's raw reading).
func (c *CPU) BusySeconds() float64 { return c.fac.BusySeconds() }

// QueueLen reports the number of requests waiting for the CPU.
func (c *CPU) QueueLen() int { return c.fac.QueueLen() }

// ResetStats restarts utilization accounting (post warm-up).
func (c *CPU) ResetStats() { c.fac.ResetStats() }
