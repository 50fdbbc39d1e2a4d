package buffer

import (
	"bytes"
	"container/list"
	"fmt"
	"testing"

	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// referencePool is the first buffer pool: an exact LRU behind two hash maps
// and a container/list, with piggybacked misses parked on the read they
// joined until it completes.
// The pool is checked against it step by step: same errors, same completion
// times, same counters and the same resident set after every step.
type referencePool struct {
	eng      *sim.Engine
	capacity int
	disk     *hw.Disk

	lru      *list.List            // front = most recent; values are page numbers
	resident map[int]*list.Element // physical page -> LRU element
	inflight map[int]*referenceRead

	hits, misses int64
}

// referenceRead is one miss in flight. Piggybacked misses append themselves
// to waiters and park; fire wakes them in the order they joined.
type referenceRead struct {
	waiters []*simtest.Proc
	done    bool
	err     error
}

func (r *referenceRead) wait(p *simtest.Proc) {
	for !r.done {
		r.waiters = append(r.waiters, p)
		p.Park()
	}
}

func (r *referenceRead) fire(e *sim.Engine) {
	r.done = true
	for _, p := range r.waiters {
		p.Wake()
	}
	r.waiters = nil
}

func newReferencePool(e *sim.Engine, capacity int, disk *hw.Disk) *referencePool {
	return &referencePool{
		eng: e, capacity: capacity, disk: disk,
		lru:      list.New(),
		resident: make(map[int]*list.Element),
		inflight: make(map[int]*referenceRead),
	}
}

func (b *referencePool) ReadHeat(p *simtest.Proc, physPage int, h *obs.FragHeat) error {
	if b.capacity == 0 {
		b.misses++
		h.BufferMiss()
		return diskRead(p, b.disk, physPage, h)
	}
	if el, ok := b.resident[physPage]; ok {
		b.hits++
		h.BufferHit()
		b.lru.MoveToFront(el)
		return nil
	}
	if pr, ok := b.inflight[physPage]; ok {
		b.hits++
		h.BufferHit()
		pr.wait(p)
		return pr.err
	}
	b.misses++
	h.BufferMiss()
	pr := &referenceRead{}
	b.inflight[physPage] = pr
	pr.err = diskRead(p, b.disk, physPage, h)
	delete(b.inflight, physPage)
	if pr.err == nil {
		if el, ok := b.resident[physPage]; ok {
			b.lru.MoveToFront(el)
		} else {
			b.resident[physPage] = b.lru.PushFront(physPage)
			for b.lru.Len() > b.capacity {
				oldest := b.lru.Back()
				b.lru.Remove(oldest)
				delete(b.resident, oldest.Value.(int))
			}
		}
	}
	pr.fire(b.eng)
	return pr.err
}

func (b *referencePool) Contains(physPage int) bool {
	_, ok := b.resident[physPage]
	return ok
}

func (b *referencePool) Len() int      { return b.lru.Len() }
func (b *referencePool) Hits() int64   { return b.hits }
func (b *referencePool) Misses() int64 { return b.misses }

// lruPool is what the equivalence driver observes of a pool.
type lruPool interface {
	ReadHeat(p *simtest.Proc, physPage int, h *obs.FragHeat) error
	Contains(physPage int) bool
	Len() int
	Hits() int64
	Misses() int64
}

// Script operations. Every process runs its own list of operations from
// time zero; the disk operations act on the one disk under the pool.
const (
	opRead     = iota // read page arg
	opHold            // hold arg·150µs
	opFailNext        // the disk's next read fails with ErrDiskIO
	opFailDisk        // the disk fail-stops, failing queued reads too
	opRepair          // the disk comes back
)

type scriptOp struct{ kind, arg int }

// poolScript is one run: a pool capacity, a page set and each process's
// operations.
type poolScript struct {
	capacity int
	pages    int
	procs    [][]scriptOp
}

// scriptPage maps a page index of the script to a physical page, spread
// over the disk so the elevator sees seeks.
func scriptPage(i int) int { return 40 + 97*i }

// decodeScript turns arbitrary bytes into a script: the first three bytes
// pick the capacity (0–8), the page-set size (1–10) and the process count
// (1–5); each later byte is the next operation of the processes in turn.
func decodeScript(data []byte) poolScript {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	s := poolScript{capacity: at(0) % 9, pages: 1 + at(1)%10}
	s.procs = make([][]scriptOp, 1+at(2)%5)
	for i := 3; i < len(data); i++ {
		b := int(data[i])
		var op scriptOp
		switch {
		case b < 190:
			op = scriptOp{opRead, b % s.pages}
		case b < 220:
			op = scriptOp{opHold, b - 189}
		case b < 235:
			op = scriptOp{opFailNext, 0}
		case b < 245:
			op = scriptOp{opFailDisk, 0}
		default:
			op = scriptOp{opRepair, 0}
		}
		w := (i - 3) % len(s.procs)
		s.procs[w] = append(s.procs[w], op)
	}
	return s
}

// runScript drives a pool built by mk through s on a fresh engine and
// disk, and returns the log: after every operation of every process, the
// process and step, the clock, the read's error, the pool's counters, its
// length and the residency of every page of the script; then the heat
// counters and the processes still parked when the engine drained.
func runScript(t *testing.T, s poolScript, mk func(*sim.Engine, int, *hw.Disk) lruPool) []string {
	t.Helper()
	e := sim.New()
	params := hw.DefaultParams()
	cpu := hw.NewCPU(e, "cpu", params)
	disk := hw.NewDisk(e, "disk", params, cpu, rng.NewFactory(3).Stream("lat"))
	pool := mk(e, s.capacity, disk)
	h := obs.NewHeatMap().Frag("r", 0, obs.FragPrimary)
	var log []string
	record := func(p *simtest.Proc, step int, err error) {
		res := make([]byte, s.pages)
		for i := range res {
			res[i] = '.'
			if pool.Contains(scriptPage(i)) {
				res[i] = '#'
			}
		}
		log = append(log, fmt.Sprintf("%s.%d t=%d err=%v hits=%d misses=%d len=%d %s",
			p.Name(), step, p.Now(), err, pool.Hits(), pool.Misses(), pool.Len(), res))
	}
	for w, ops := range s.procs {
		simtest.Spawn(e, fmt.Sprintf("p%d", w), func(p *simtest.Proc) {
			for step, op := range ops {
				var err error
				switch op.kind {
				case opRead:
					err = pool.ReadHeat(p, scriptPage(op.arg), h)
				case opHold:
					p.Hold(sim.Duration(op.arg) * 150 * sim.Microsecond)
				case opFailNext:
					disk.FailNextReads(1)
				case opFailDisk:
					disk.Fail()
				case opRepair:
					disk.Repair()
				}
				record(p, step, err)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	log = append(log, fmt.Sprintf("heat hits=%d misses=%d parked=%d", h.BufHits, h.BufMisses, simtest.Parked(e)))
	e.Close()
	return log
}

// checkScript runs s on the pool and on the reference and fails at the
// first step where their logs differ.
func checkScript(t *testing.T, s poolScript) {
	t.Helper()
	got := runScript(t, s, func(e *sim.Engine, capacity int, d *hw.Disk) lruPool {
		return processPool{NewPool(e, capacity, d)}
	})
	want := runScript(t, s, func(e *sim.Engine, capacity int, d *hw.Disk) lruPool {
		return newReferencePool(e, capacity, d)
	})
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("capacity %d, %d pages, %d processes: step %d differs\n got: %s\nwant: %s",
			s.capacity, s.pages, len(s.procs), i, at(got, i), at(want, i))
	}
}

func firstDiff(a, b []string) int {
	for i := range max(len(a), len(b)) {
		if at(a, i) != at(b, i) {
			return i
		}
	}
	return -1
}

func at(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "<end>"
}

// TestPoolMatchesReference drives the pool and the reference with the same
// random scripts: several processes reading a small page set through pools
// of 0–8 pages, with concurrent misses on one page, transient read errors
// and fail-stopped disks.
func TestPoolMatchesReference(t *testing.T) {
	src := rng.NewFactory(11).Stream("scripts")
	for n := 0; n < 1500; n++ {
		data := make([]byte, 3+src.Intn(120))
		for i := range data {
			data[i] = byte(src.Intn(256))
		}
		data[0] = byte(n % 9) // every capacity, evenly
		checkScript(t, decodeScript(data))
	}
}

func FuzzPoolLRU(f *testing.F) {
	f.Add([]byte{2, 4, 3, 0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3})
	f.Add([]byte{1, 3, 4, 0, 0, 0, 0, 230, 0, 0, 0, 1, 2, 1, 2})
	f.Add([]byte{3, 5, 2, 0, 200, 0, 1, 240, 1, 2, 250, 2, 3, 0, 4})
	f.Add([]byte{0, 2, 1, 0, 0, 1, 1, 230, 0})
	f.Add(bytes.Repeat([]byte{8, 9, 4, 5, 7, 190, 3, 1, 6, 0, 2}, 4))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 400 {
			data = data[:400]
		}
		checkScript(t, decodeScript(data))
	})
}
