package buffer

import (
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/sim/simtest"
)

// Contains reports whether the page is currently resident.
func (b *Pool) Contains(physPage int) bool {
	if b.capacity == 0 {
		return false
	}
	_, f := b.lookup(physPage)
	return f >= 0
}

// Len reports the number of resident pages.
func (b *Pool) Len() int { return int(b.used) }

// readHeat reads physPage through b for p with PageRead's step form,
// parking p through each wait, and returns the read's outcome.
func readHeat(p *simtest.Proc, b *Pool, physPage int, h *obs.FragHeat) error {
	var r PageRead
	for done := r.Start(b, p, physPage, h); !done; done = r.Step() {
		p.Park()
	}
	return r.Err()
}

// diskRead reads physPage from d for p with hw.DiskRead's step form.
func diskRead(p *simtest.Proc, d *hw.Disk, physPage int, h *obs.FragHeat) error {
	var r hw.DiskRead
	for done := r.Start(d, p, physPage, h); !done; done = r.Step() {
		p.Park()
	}
	return r.Err()
}

// processPool is a Pool that processes read, as the equivalence scripts
// read the reference pool.
type processPool struct{ *Pool }

func (b processPool) ReadHeat(p *simtest.Proc, physPage int, h *obs.FragHeat) error {
	return readHeat(p, b.Pool, physPage, h)
}
