package hw

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
)

// ErrDiskFailed marks requests rejected or aborted by a fail-stop disk.
// It is permanent: the disk stays dead until Repair.
var ErrDiskFailed = errors.New("disk failed (fail-stop)")

// ErrDiskIO marks a transient I/O error: the request failed but the disk is
// healthy, so a retry of the same request may succeed.
var ErrDiskIO = errors.New("transient disk I/O error")

// Disk models one node's disk with an elevator (SCAN) scheduler [TP72], the
// policy the paper's Disk Manager uses. Physical pages are laid out on a
// cylinder geometry so that sequential and random accesses cost what they
// should: a request to the page immediately following the previous transfer
// pays transfer time only; any other request pays seek (settle +
// seekFactor*sqrt(distance)), rotational latency (uniform), and transfer.
//
// After the disk arm finishes a read, the page sits in the I/O channel's
// FIFO buffer; moving it to memory costs XferPageInstr CPU instructions at
// transfer priority, charged to the requester by the read. Writes pay the
// memory->FIFO transfer before the arm starts.
type Disk struct {
	eng    *sim.Engine
	name   string
	node   int // observability: which node's "disk" track spans land on
	params Params
	cpu    *CPU
	lat    *rng.Source

	queue   []diskReq
	nextSeq uint64
	busy    bool
	cur     diskReq  // request the arm is serving (valid while busy)
	curSpan sim.Span // trace interval of the in-flight transfer

	headCyl  int
	dirUp    bool
	lastPage int // last physical page transferred, -1 initially

	reads int64 // read transfers since the last stats reset
	clock sim.BusyClock

	// Fault-injection state. All fields stay at their zero values unless a
	// fault.Injector drives them, so the healthy hot path costs one branch.
	failed   bool // fail-stop: reject everything until Repair
	aborted  bool // Fail hit the in-flight transfer
	failNext int  // next N reads fail with a transient error
}

// diskReq is one queued or in-flight request: the Waiter to schedule when
// the arm finishes it or Fail errors it out, and what the arm needs.
type diskReq struct {
	w        Waiter
	physPage int
	write    bool
	seq      uint64
	arrived  sim.Time
	qid      int64
	heat     *obs.FragHeat // fragment attribution for queue wait (nil = off)
}

// NewDisk creates the disk for a node. cpu receives the FIFO transfer
// charges; lat supplies rotational latencies.
func NewDisk(e *sim.Engine, name string, params Params, cpu *CPU, lat *rng.Source) *Disk {
	d := &Disk{
		eng: e, name: name, node: obs.NoNode, params: params, cpu: cpu, lat: lat,
		dirUp: true, lastPage: -1,
	}
	d.clock.Reset(e.Now())
	return d
}

// SetNode records the node id for observability tracks.
func (d *Disk) SetNode(node int) { d.node = node }

// DiskRead fetches a physical page into memory, in step form, in a record
// its caller owns: the arm's queue wait and transfer, then the page's FIFO
// transfer on the node CPU at transfer priority. Start issues the read for
// a Waiter, each wait ends by scheduling the Waiter, which calls Step in
// that event, and both report whether the read is done; Err is then its
// outcome. An error means the page never reached memory: the disk is
// failed, the read was hit by an injected transient error, or the page
// address is out of range.
type DiskRead struct {
	d    *Disk
	w    Waiter
	xfer bool // the arm is done and the FIFO transfer is in service
	err  error
}

// Start issues the read of physPage for w, attributing its queue wait
// (arrival to arm start) to h (nil = off). It reports true only when the read fails at once.
func (r *DiskRead) Start(d *Disk, w Waiter, physPage int, h *obs.FragHeat) bool {
	*r = DiskRead{d: d, w: w}
	r.err = d.enqueue(w, physPage, false, h)
	return r.err != nil
}

// Step continues the read in the event that ended its wait: after the
// arm, it takes a failure from the Waiter's error slot or starts the FIFO
// transfer; after the transfer, the read is done.
func (r *DiskRead) Step() bool {
	if r.xfer {
		return true
	}
	if r.err = takeErr(r.w); r.err != nil {
		return true
	}
	r.xfer = true
	return !r.d.cpu.Charge(r.w, r.d.params.XferPageInstr, PrioTransfer)
}

// Err reports the outcome of a read that is done.
func (r *DiskRead) Err() error { return r.err }

// DiskWrite stores a physical page from memory, in step form, in a record
// its caller owns: the memory-to-FIFO transfer on the node CPU at transfer
// priority first, then the arm's queue wait and transfer (a synchronous,
// durable write). Start and Step report whether the write is done, as
// DiskRead's do; Err is then its outcome.
type DiskWrite struct {
	d    *Disk
	w    Waiter
	page int
	arm  bool // the FIFO transfer is over and the arm has the request
	err  error
}

// Start begins the write of physPage for w.
func (r *DiskWrite) Start(d *Disk, w Waiter, physPage int) bool {
	*r = DiskWrite{d: d, w: w, page: physPage}
	if d.cpu.Charge(w, d.params.XferPageInstr, PrioTransfer) {
		return false
	}
	return r.Step()
}

// Step continues the write in the event that ended its wait: after the
// FIFO transfer it queues the request at the arm, and after the arm it
// takes the outcome from the Waiter's error slot.
func (r *DiskWrite) Step() bool {
	if r.arm {
		r.err = takeErr(r.w)
		return true
	}
	r.arm = true
	r.err = r.d.enqueue(r.w, r.page, true, nil)
	return r.err != nil
}

// Err reports the outcome of a write that is done.
func (r *DiskWrite) Err() error { return r.err }

// enqueue queues a request for w, starting the arm on an idle disk, or
// returns the error that rejects it at once.
func (d *Disk) enqueue(w Waiter, physPage int, write bool, h *obs.FragHeat) error {
	if physPage < 0 || physPage >= d.params.PagesPerDisk() {
		return fmt.Errorf("hw: %s: physical page %d out of range [0,%d)",
			d.name, physPage, d.params.PagesPerDisk())
	}
	if d.failed {
		return fmt.Errorf("hw: %s: %s p%d: %w", d.name, verb(write), physPage, ErrDiskFailed)
	}
	if !write && d.failNext > 0 {
		d.failNext--
		return fmt.Errorf("hw: %s: read p%d: %w", d.name, physPage, ErrDiskIO)
	}
	d.nextSeq++
	d.queue = append(d.queue, diskReq{
		w: w, physPage: physPage, write: write, seq: d.nextSeq,
		arrived: d.eng.Now(), qid: w.QID(), heat: h,
	})
	if !d.busy {
		d.busy = true
		d.clock.Start(d.eng.Now())
		d.startNext()
	}
	return nil
}

// takeErr empties w's error slot and returns what it held.
func takeErr(w Waiter) error {
	slot := w.ErrSlot()
	err := *slot
	*slot = nil
	return err
}

// failRequest puts an error in a waiting requester's error slot and
// schedules it, as the end of its wait.
func (d *Disk) failRequest(req *diskReq, err error) {
	*req.w.ErrSlot() = err
	d.eng.ScheduleHandler(0, req.w)
}

// Fail makes the disk fail-stop: every queued request errors out now, the
// in-flight transfer is marked aborted and errors out when its arm event
// fires, even if Repair comes first, and new requests are rejected until
// Repair. Failing a failed disk is a no-op.
func (d *Disk) Fail() {
	if d.failed {
		return
	}
	d.failed = true
	d.aborted = d.busy
	for i := range d.queue {
		req := &d.queue[i]
		d.failRequest(req, fmt.Errorf("hw: %s: %s p%d: %w",
			d.name, verb(req.write), req.physPage, ErrDiskFailed))
		*req = diskReq{}
	}
	d.queue = d.queue[:0]
}

// Repair brings a failed disk back. Requests issued after Repair succeed,
// queued behind a transfer Fail aborted if its arm event has not fired
// yet; nothing lost during the outage is replayed.
func (d *Disk) Repair() { d.failed = false }

// FailNextReads arms n one-shot transient errors: the next n reads fail
// with ErrDiskIO without touching the arm. Calls accumulate.
func (d *Disk) FailNextReads(n int) {
	if n > 0 {
		d.failNext += n
	}
}

// startNext picks the next request per the elevator policy and runs it.
// Must only be called while busy with a non-empty queue. The in-flight
// request lives in d.cur and the disk schedules itself as the Handler of
// its completion, so a transfer allocates no per-request closure.
func (d *Disk) startNext() {
	idx := d.pickElevator()
	d.cur = d.queue[idx]
	last := len(d.queue) - 1
	copy(d.queue[idx:], d.queue[idx+1:])
	d.queue[last] = diskReq{}
	d.queue = d.queue[:last]

	req := &d.cur
	t := d.serviceTime(req.physPage)
	req.heat.DiskWait(int64(d.eng.Now() - req.arrived))
	d.headCyl = d.params.Cylinder(req.physPage)
	d.lastPage = req.physPage
	if !req.write {
		d.reads++
	}
	d.curSpan = d.eng.StartSpan()
	d.eng.ScheduleHandler(t, d)
}

// HandleEvent completes the in-flight transfer: it emits the transfer's
// trace span, schedules the requester (with ErrDiskFailed in its error
// slot when Fail aborted the transfer), and starts the next queued
// request. It implements the engine's Handler interface and is not meant
// to be called directly.
func (d *Disk) HandleEvent() {
	req := &d.cur
	if d.curSpan.Active() {
		d.curSpan.End(d.node, "disk",
			fmt.Sprintf("%s p%d", verb(req.write), req.physPage), req.qid,
			fmt.Sprintf("cyl %d", d.params.Cylinder(req.physPage)))
	}
	if d.aborted {
		// The disk fail-stopped while this transfer was in flight: the
		// requester gets an error instead of its page. Fail flushed the
		// queue, so it holds only requests made after a Repair.
		d.aborted = false
		d.failRequest(req, fmt.Errorf("hw: %s: %s p%d: %w",
			d.name, verb(req.write), req.physPage, ErrDiskFailed))
	} else {
		d.eng.ScheduleHandler(0, req.w)
	}
	if len(d.queue) > 0 {
		d.startNext()
	} else {
		d.busy = false
		d.cur = diskReq{}
		d.clock.Stop(d.eng.Now())
	}
}

func verb(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// pickElevator returns the index of the queued request the SCAN policy
// serves next: the nearest request at or beyond the head in the sweep
// direction; if none, the sweep reverses. Ties on cylinder break FIFO.
func (d *Disk) pickElevator() int {
	best := -1
	pick := func(up bool) int {
		chosen, chosenCyl := -1, 0
		for i := range d.queue {
			r := &d.queue[i]
			c := d.params.Cylinder(r.physPage)
			if up && c < d.headCyl || !up && c > d.headCyl {
				continue
			}
			better := chosen == -1
			if !better {
				if up {
					better = c < chosenCyl || (c == chosenCyl && r.seq < d.queue[chosen].seq)
				} else {
					better = c > chosenCyl || (c == chosenCyl && r.seq < d.queue[chosen].seq)
				}
			}
			if better {
				chosen, chosenCyl = i, c
			}
		}
		return chosen
	}
	best = pick(d.dirUp)
	if best == -1 {
		d.dirUp = !d.dirUp
		best = pick(d.dirUp)
	}
	if best == -1 {
		panic("hw: elevator found no request in a non-empty queue")
	}
	return best
}

// serviceTime computes the mechanism time for the page: sequential successor
// pages pay transfer only; everything else pays seek + rotational latency +
// transfer.
func (d *Disk) serviceTime(physPage int) sim.Duration {
	if d.lastPage >= 0 && physPage == d.lastPage+1 &&
		d.params.Cylinder(physPage) == d.params.Cylinder(d.lastPage) {
		return d.params.PageTransferTime()
	}
	seek := d.params.SeekTime(abs(d.params.Cylinder(physPage) - d.headCyl))
	rot := sim.Milliseconds(d.lat.Uniform(0, d.params.MaxLatencyMS))
	return seek + rot + d.params.PageTransferTime()
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Reads reports read transfers the arm started since the last stats reset.
func (d *Disk) Reads() int64 { return d.reads }

// QueueLen reports the number of waiting requests.
func (d *Disk) QueueLen() int { return len(d.queue) }

// Utilization reports the fraction of time the arm was busy since the last
// stats reset.
func (d *Disk) Utilization() float64 { return d.clock.Utilization(d.eng.Now()) }

// BusySeconds reports the arm's cumulative busy time in simulated seconds
// since the last stats reset (the windowed-utilization probe's raw
// reading).
func (d *Disk) BusySeconds() float64 { return d.clock.BusySeconds(d.eng.Now()) }

// ResetStats restarts the read count and busy-time accounting (post
// warm-up).
func (d *Disk) ResetStats() {
	d.reads = 0
	d.clock.Reset(d.eng.Now())
}
