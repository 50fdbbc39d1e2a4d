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

// Execute charges instr instructions at normal priority, blocking the caller
// through queueing and service.
func (c *CPU) Execute(p *sim.Proc, instr int) {
	c.run(p, instr, PrioNormal)
}

// ExecuteTransfer charges instr instructions at transfer (head-of-line)
// priority, modeling the paper's interrupt-driven byte transfers.
func (c *CPU) ExecuteTransfer(p *sim.Proc, instr int) {
	c.run(p, instr, PrioTransfer)
}

// ExecuteTime charges a precomputed service duration at the given priority.
// It exists for costs Table 2 expresses directly in time (message protocol
// processing) rather than instructions.
func (c *CPU) ExecuteTime(p *sim.Proc, d sim.Duration, prio int) {
	if d == 0 {
		return
	}
	c.fac.UsePriority(p, d, prio)
}

func (c *CPU) run(p *sim.Proc, instr, prio int) {
	if instr < 0 {
		panic(fmt.Sprintf("hw: negative instruction count %d on %s", instr, c.fac.Name()))
	}
	if instr == 0 {
		return
	}
	c.fac.UsePriority(p, c.params.InstrTime(instr), prio)
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
