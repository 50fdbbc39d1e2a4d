// Package buffer implements the per-node LRU buffer pool. Index roots and
// hot interior pages stay resident, so repeated index traversals pay CPU but
// not I/O — the behaviour the paper's query cost structure assumes.
//
// The pool deduplicates concurrent misses on the same page: the first
// requester performs the disk read while later requesters wait on its
// completion, as a real buffer manager's I/O latch would arrange.
//
// The resident pages live in a fixed array of capacity frames, linked into
// an LRU list by int32 indices and found through a small open-addressed
// table. A page takes a frame only once its read has succeeded; reads in
// flight are kept apart, each with a latch from the pool's free list, so a
// hit, a miss and a piggybacked wait allocate nothing once the pool is warm.
//
// A read runs in step form (PageRead), for any hw.Waiter: an operator
// handler or the rebalance copier.
package buffer

import (
	"fmt"
	"math/bits"

	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Pool is one node's buffer pool.
type Pool struct {
	eng      *sim.Engine
	capacity int // pages; 0 disables caching entirely (every read hits disk)
	disk     *hw.Disk

	// frames[:used] hold the resident pages, linked from head (most
	// recent) to tail (least recent); -1 ends the list.
	frames     []frame
	used       int32
	head, tail int32

	// table maps a resident page to its frame: a slot holds frame index+1,
	// 0 is empty. Linear probing, at most half full, backward-shift delete.
	table []int32
	shift uint // 64 - log2(len(table))

	inflight []inflightRead // reads in progress, in no particular order
	free     []*latch       // latches no reader or waiter holds

	hits, misses int64
}

type frame struct {
	page       int
	prev, next int32
}

type inflightRead struct {
	page  int
	latch *latch
}

// latch carries one in-flight read's outcome to the readers that
// piggyback on it. It returns to the pool's free list only once the read
// has finished and every waiter has resumed and taken err: a latch freed
// when it fires could be re-armed by a later miss in the same instant,
// before its waiters run, and they would read the later read's state.
type latch struct {
	err     error
	waiters []sim.Handler // piggybackers, in arrival order
	pending int           // waiters that have not yet taken err
}

// NewPool creates a pool of the given capacity over the node's disk.
// capacity == 0 turns the pool into a pass-through (ablation runs);
// a negative capacity is an error.
func NewPool(e *sim.Engine, capacity int, disk *hw.Disk) *Pool {
	if capacity < 0 {
		panic(fmt.Sprintf("buffer: negative capacity %d", capacity))
	}
	b := &Pool{eng: e, capacity: capacity, disk: disk, head: -1, tail: -1}
	if capacity > 0 {
		log := uint(bits.Len(uint(2*capacity - 1))) // 1<<log >= 2*capacity
		b.frames = make([]frame, capacity)
		b.table = make([]int32, 1<<log)
		b.shift = 64 - log
	}
	return b
}

// PageRead ensures a physical page is in memory, in step form, in a
// record its caller owns. Start begins the read for a Waiter: a hit is
// done at once, a miss issues the disk read under a latch, and a read of a
// page already in flight piggybacks on its latch. Each wait ends by
// scheduling the Waiter, which calls Step in that event, and both report
// whether the read is done; Err is then its outcome. Hits cost no
// simulated time (the lookup is folded into the caller's per-page CPU
// charge). An error means the page did not reach memory — the disk failed
// or the read hit an injected I/O error — and is delivered to piggybacked
// waiters too; the page is not marked resident.
type PageRead struct {
	b     *Pool
	page  int
	latch *latch // the latch the miss armed, or the one the piggyback waits on
	piggy bool   // waiting on another read's latch
	disk  hw.DiskRead
	err   error
}

// Start begins reading physPage for w, attributing it to h (nil = off):
// hits (including piggybacked waits, which issue no disk request of their
// own) and misses are counted on h, and a miss forwards h to the disk so
// the physical read's queue wait lands on the fragment too. Per-fragment
// misses sum to the disk's read totals when every caller attributes.
func (r *PageRead) Start(b *Pool, w hw.Waiter, physPage int, h *obs.FragHeat) bool {
	*r = PageRead{b: b, page: physPage}
	if b.capacity == 0 {
		b.misses++
		h.BufferMiss()
		return r.diskStarted(w, h)
	}
	if _, f := b.lookup(physPage); f >= 0 {
		b.hits++
		h.BufferHit()
		if f != b.head {
			b.unlink(f)
			b.pushFront(f)
		}
		return true
	}
	for _, in := range b.inflight {
		if in.page == physPage {
			// Another reader is already reading this page; piggyback on
			// it and share its outcome.
			b.hits++
			h.BufferHit()
			r.latch, r.piggy = in.latch, true
			in.latch.pending++
			in.latch.waiters = append(in.latch.waiters, w)
			return false
		}
	}
	b.misses++
	h.BufferMiss()
	r.latch = b.arm(physPage)
	return r.diskStarted(w, h)
}

// diskStarted issues the disk read and reports whether it is done, as it
// is when the disk rejects it at once.
func (r *PageRead) diskStarted(w hw.Waiter, h *obs.FragHeat) bool {
	if !r.disk.Start(r.b.disk, w, r.page, h) {
		return false
	}
	r.finish()
	return true
}

// Step continues the read in the event that ended its wait.
func (r *PageRead) Step() bool {
	if r.piggy {
		// The read we joined has finished; the last waiter to take its
		// outcome puts the latch back on the free list.
		l := r.latch
		r.err = l.err
		l.pending--
		if l.pending == 0 {
			r.b.free = append(r.b.free, l)
		}
		return true
	}
	if !r.disk.Step() {
		return false
	}
	r.finish()
	return true
}

// finish completes the read with the disk's outcome: a miss makes the
// page resident on success, hands the outcome to its piggybackers and
// wakes them in the order they joined, and frees its latch unless a
// waiter has yet to take the outcome.
func (r *PageRead) finish() {
	b, l := r.b, r.latch
	r.err = r.disk.Err()
	if l == nil {
		return // a pass-through read
	}
	b.disarm(r.page)
	if r.err == nil {
		b.insert(r.page)
	}
	l.err = r.err
	for i, w := range l.waiters {
		b.eng.ScheduleHandler(0, w)
		l.waiters[i] = nil
	}
	l.waiters = l.waiters[:0]
	if l.pending == 0 {
		b.free = append(b.free, l)
	}
}

// Err reports the outcome of a read that is done.
func (r *PageRead) Err() error { return r.err }

// arm registers a read of physPage in flight under a free latch.
func (b *Pool) arm(physPage int) *latch {
	var l *latch
	if n := len(b.free); n > 0 {
		l = b.free[n-1]
		b.free = b.free[:n-1]
		l.err = nil
	} else {
		l = new(latch)
	}
	b.inflight = append(b.inflight, inflightRead{physPage, l})
	return l
}

// disarm removes physPage's read from the in-flight set.
func (b *Pool) disarm(physPage int) {
	last := len(b.inflight) - 1
	for i := range b.inflight {
		if b.inflight[i].page == physPage {
			b.inflight[i] = b.inflight[last]
			b.inflight[last] = inflightRead{}
			b.inflight = b.inflight[:last]
			return
		}
	}
}

// insert makes a page that is not resident the most recent, evicting the
// least recent page when every frame is in use. (All pages are clean in
// this read-only workload, so eviction is free.)
func (b *Pool) insert(physPage int) {
	f := b.used
	if int(f) < b.capacity {
		b.used++
	} else {
		f = b.tail
		b.unlink(f)
		b.remove(b.frames[f].page)
	}
	b.frames[f].page = physPage
	b.pushFront(f)
	slot, _ := b.lookup(physPage) // the empty slot that ends its probe run
	b.table[slot] = f + 1
}

// home is physPage's preferred table slot (Fibonacci hashing).
func (b *Pool) home(physPage int) int {
	return int(uint64(physPage) * 0x9E3779B97F4A7C15 >> b.shift)
}

// lookup returns physPage's table slot and frame, or frame -1 when the
// page is not resident.
func (b *Pool) lookup(physPage int) (slot int, f int32) {
	for slot = b.home(physPage); ; slot = (slot + 1) & (len(b.table) - 1) {
		s := b.table[slot]
		if s == 0 {
			return slot, -1
		}
		if b.frames[s-1].page == physPage {
			return slot, s - 1
		}
	}
}

// remove deletes a resident page from the table, shifting later entries
// of its probe run back so that every lookup still finds its page without
// tombstones.
func (b *Pool) remove(physPage int) {
	mask := len(b.table) - 1
	hole, _ := b.lookup(physPage)
	for j := (hole + 1) & mask; b.table[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole unless its home lies
		// cyclically in (hole, j].
		if home := b.home(b.frames[b.table[j]-1].page); (j-home)&mask >= (j-hole)&mask {
			b.table[hole] = b.table[j]
			hole = j
		}
	}
	b.table[hole] = 0
}

func (b *Pool) unlink(f int32) {
	fr := &b.frames[f]
	if fr.prev >= 0 {
		b.frames[fr.prev].next = fr.next
	} else {
		b.head = fr.next
	}
	if fr.next >= 0 {
		b.frames[fr.next].prev = fr.prev
	} else {
		b.tail = fr.prev
	}
}

func (b *Pool) pushFront(f int32) {
	fr := &b.frames[f]
	fr.prev, fr.next = -1, b.head
	if b.head >= 0 {
		b.frames[b.head].prev = f
	} else {
		b.tail = f
	}
	b.head = f
}

// Hits reports buffer hits (including piggybacked in-flight reads).
func (b *Pool) Hits() int64 { return b.hits }

// Misses reports buffer misses (actual disk reads issued).
func (b *Pool) Misses() int64 { return b.misses }

// HitRate reports hits / (hits + misses), or 0 before any access.
func (b *Pool) HitRate() float64 {
	total := b.hits + b.misses
	if total == 0 {
		return 0
	}
	return float64(b.hits) / float64(total)
}

// ResetStats clears the hit and miss counters (post warm-up) without
// evicting pages.
func (b *Pool) ResetStats() { b.hits, b.misses = 0, 0 }
