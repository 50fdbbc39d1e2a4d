package hw

import (
	"repro/internal/obs"
	"repro/internal/sim/simtest"
)

// readHeat reads physPage for p through DiskRead's step form, parking p
// through each wait, and returns the read's outcome.
func readHeat(p *simtest.Proc, d *Disk, physPage int, h *obs.FragHeat) error {
	var r DiskRead
	for done := r.Start(d, p, physPage, h); !done; done = r.Step() {
		p.Park()
	}
	return r.Err()
}

// writePage writes physPage for p through DiskWrite's step form.
func writePage(p *simtest.Proc, d *Disk, physPage int) error {
	var r DiskWrite
	for done := r.Start(d, p, physPage); !done; done = r.Step() {
		p.Park()
	}
	return r.Err()
}

// executeTransfer charges instr instructions at transfer priority for p
// and parks p through queueing and service.
func executeTransfer(p *simtest.Proc, c *CPU, instr int) {
	if c.Charge(p, instr, PrioTransfer) {
		p.Park()
	}
}
