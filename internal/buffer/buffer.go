// Package buffer implements the per-node LRU buffer pool. Index roots and
// hot interior pages stay resident, so repeated index traversals pay CPU but
// not I/O — the behaviour the paper's query cost structure assumes.
//
// The pool deduplicates concurrent misses on the same page: the first
// requester performs the disk read while later requesters wait on its
// completion, as a real buffer manager's I/O latch would arrange.
package buffer

import (
	"container/list"
	"fmt"

	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Pool is one node's buffer pool.
type Pool struct {
	eng      *sim.Engine
	name     string
	capacity int // pages; 0 disables caching entirely (every read hits disk)
	disk     *hw.Disk

	lru      *list.List            // front = most recent; values are page numbers
	resident map[int]*list.Element // physical page -> LRU element
	inflight map[int]*pendingRead  // physical page -> pending read completion

	hits, misses int64
}

// NewPool creates a pool of the given capacity over the node's disk.
// capacity == 0 turns the pool into a pass-through (ablation runs);
// a negative capacity is an error.
func NewPool(e *sim.Engine, name string, capacity int, disk *hw.Disk) *Pool {
	if capacity < 0 {
		panic(fmt.Sprintf("buffer: negative capacity %d", capacity))
	}
	return &Pool{
		eng:      e,
		name:     name,
		capacity: capacity,
		disk:     disk,
		lru:      list.New(),
		resident: make(map[int]*list.Element),
		inflight: make(map[int]*pendingRead),
	}
}

// pendingRead tracks one in-flight disk read: piggybackers wait on tr, and
// err carries the reader's outcome to them (set before tr fires).
type pendingRead struct {
	tr  *sim.Trigger
	err error
}

// Read ensures physPage is in memory, blocking the caller for the disk read
// on a miss. Hits cost no simulated time (the lookup is folded into the
// caller's per-page CPU charge). An error means the page did not reach
// memory — the disk failed or the read hit an injected I/O error — and is
// delivered to piggybacked waiters too; the page is not marked resident.
func (b *Pool) Read(p *sim.Proc, physPage int) error {
	return b.ReadHeat(p, physPage, nil)
}

// ReadHeat is Read with per-fragment heat attribution: hits (including
// piggybacked waits, which issue no disk request of their own) and misses
// are counted on h, and a miss forwards h to the disk so the physical
// read's queue wait lands on the fragment too. A nil h is exactly Read,
// so per-fragment misses sum to the disk's read totals when every caller
// attributes.
func (b *Pool) ReadHeat(p *sim.Proc, physPage int, h *obs.FragHeat) error {
	if b.capacity == 0 {
		b.misses++
		h.BufferMiss()
		return b.disk.ReadHeat(p, physPage, h)
	}
	if el, ok := b.resident[physPage]; ok {
		b.hits++
		h.BufferHit()
		b.lru.MoveToFront(el)
		return nil
	}
	if pr, ok := b.inflight[physPage]; ok {
		// Another process is already reading this page; piggyback on it and
		// share its outcome.
		b.hits++
		h.BufferHit()
		pr.tr.Wait(p)
		return pr.err
	}
	b.misses++
	h.BufferMiss()
	pr := &pendingRead{tr: sim.NewTrigger(b.eng)}
	b.inflight[physPage] = pr
	pr.err = b.disk.ReadHeat(p, physPage, h)
	delete(b.inflight, physPage)
	if pr.err == nil {
		b.insert(physPage)
	}
	pr.tr.Fire()
	return pr.err
}

// insert adds the page as most-recently-used, evicting LRU pages over
// capacity. (All pages are clean in this read-only workload, so eviction is
// free.)
func (b *Pool) insert(physPage int) {
	if el, ok := b.resident[physPage]; ok {
		b.lru.MoveToFront(el)
		return
	}
	b.resident[physPage] = b.lru.PushFront(physPage)
	for b.lru.Len() > b.capacity {
		oldest := b.lru.Back()
		b.lru.Remove(oldest)
		delete(b.resident, oldest.Value.(int))
	}
}

// Contains reports whether the page is currently resident.
func (b *Pool) Contains(physPage int) bool {
	_, ok := b.resident[physPage]
	return ok
}

// Len reports the number of resident pages.
func (b *Pool) Len() int { return b.lru.Len() }

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
