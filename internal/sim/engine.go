// Package sim is a process-oriented discrete-event simulation kernel. It
// plays the role DeNet [Liv88] plays in the paper: model components (disk
// managers, CPU schedulers, network interfaces, relational operators,
// terminals) are written as sequential processes that hold for simulated
// time, use facilities, and exchange messages through mailboxes, while the
// kernel advances a global virtual clock.
//
// Each process runs as a coroutine (iter.Pull) that only the engine loop
// resumes, on the loop's own thread, and every wake-up flows through a
// single event heap ordered by (time, sequence number). Exactly one process
// runs at a time, so runs are fully deterministic for a fixed seed and
// configuration.
package sim

import (
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/obs"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// run. Using a fixed-point representation keeps the event ordering exact.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Milliseconds converts a float64 millisecond count (the unit the paper's
// Table 2 uses) to a Duration, rounding to the nearest nanosecond.
func Milliseconds(ms float64) Duration {
	return Duration(ms*1e6 + 0.5)
}

// Seconds reports t in seconds as a float64, for throughput arithmetic.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Milliseconds reports t in milliseconds as a float64.
func (t Time) Milliseconds() float64 { return float64(t) / 1e6 }

// Milliseconds reports d in milliseconds as a float64.
func (d Duration) Milliseconds() float64 { return float64(d) / 1e6 }

// Seconds reports d in seconds as a float64.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

func (t Time) String() string     { return fmt.Sprintf("%.3fms", t.Milliseconds()) }
func (d Duration) String() string { return fmt.Sprintf("%.3fms", d.Milliseconds()) }

// event is a pooled scheduler record: the Handler to run at (t, seq). A
// process, a callback and a component are all Handlers, so the record is
// four words. Records live in the engine's pool and are addressed by
// index; the heap and ready ring order indices, never records, so
// scheduling allocates nothing once the pool is warm.
type event struct {
	t   Time
	seq uint64
	h   Handler
}

// Handler is the kernel's one event target. A *Proc resumes itself, a
// Schedule callback runs itself (funcHandler), and a component with
// timer state in its own struct (a facility's in-service completion, a
// disk transfer, a mailbox's consumer) schedules itself with
// ScheduleHandler. Each is stored as two interface words in the pooled
// event record, so none allocates a closure per event.
type Handler interface {
	// HandleEvent runs when the scheduled time arrives, in event order.
	HandleEvent()
}

// funcHandler runs a Schedule callback. A func value is one pointer word,
// so storing it in a Handler allocates nothing.
type funcHandler func()

func (f funcHandler) HandleEvent() { f() }

// Namer reports a name formatted only when something reads it. A handler
// may implement it to name itself in the run error of its panic and on the
// span of a facility request made for it.
type Namer interface {
	Name() string
}

// handlerName names h for a panic message or a span: its Name when it has
// one, else its type.
func handlerName(h Handler) string {
	if n, ok := h.(Namer); ok {
		return n.Name()
	}
	return fmt.Sprintf("%T", h)
}

// Engine is the simulation kernel. Create one with New, spawn processes,
// then call Run or RunUntil. An Engine is single-threaded by construction
// and must not be shared across goroutines other than its own processes.
type Engine struct {
	now Time
	seq uint64

	// Event storage: pool is the record arena, free holds recycled slots,
	// eheap orders future events by (time, seq), and ready is a FIFO ring of
	// events due at the current instant. Wake-ups and zero-delay schedules
	// go to the ring — an O(1) append with no heap sift — which is safe
	// because a record due "now" always carries a larger sequence number
	// than any same-time record already in the heap, and the clock cannot
	// advance while the ring is non-empty.
	pool   []event
	free   []int32
	eheap  []int32
	ready  []int32 // power-of-two ring buffer
	rhead  int
	rcount int

	// deadline is the active RunUntil horizon, visible to the Hold fast
	// path so a self-advancing process never runs past it.
	deadline Time

	stopped bool
	closed  bool
	err     error
	// procs is the live-process set: every process spawned and not yet
	// finished, each at its Proc.slot. A finishing process swap-removes
	// itself, so the set is bounded by live processes, not spawned ones.
	procs []*Proc
	// idle holds the coroutines of finished processes, each parked in its
	// loop until Spawn hands it the next body, so the pool is bounded by
	// the peak number of live processes.
	idle   []*coro
	parked int      // processes blocked with no scheduled event
	sink   obs.Sink // structured trace sink; nil = tracing disabled
	stats  Stats
}

// Stats counts what the kernel itself has done since New: the simulator's
// cost, as opposed to anything about the simulated machine. Every count is
// deterministic for a fixed seed and configuration.
type Stats struct {
	// Events counts dispatched events: process resumes, callbacks and
	// handlers. A stale resume of a finished process is dropped uncounted.
	Events int64 `json:"events"`
	// Switches counts resumes that switched into a process's coroutine and
	// back, including Close's teardown resumes.
	Switches int64 `json:"switches"`
	// SelfResumes counts resumes the Hold fast path took in place, without
	// a switch, because the holding process's own wake-up was due next.
	SelfResumes int64 `json:"self_resumes"`
	// Spawns counts processes spawned.
	Spawns int64 `json:"spawns"`
	// CoroutinesCreated and CoroutinesReused split the spawns by whether
	// the process got a new coroutine or an idle one from the pool.
	CoroutinesCreated int64 `json:"coroutines_created"`
	CoroutinesReused  int64 `json:"coroutines_reused"`
}

func (s Stats) String() string {
	return fmt.Sprintf("events=%d switches=%d self_resumes=%d spawns=%d coroutines=%d created/%d reused",
		s.Events, s.Switches, s.SelfResumes, s.Spawns, s.CoroutinesCreated, s.CoroutinesReused)
}

// New returns an empty engine at time zero.
func New() *Engine { return &Engine{} }

// Stats reports the kernel counters accumulated since New.
func (e *Engine) Stats() Stats { return e.stats }

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// SetSink installs a structured trace sink receiving typed events from
// facilities, hardware models and the execution layer. Pass nil to disable.
// Tracing is intended for the querytrace tool and tests; the hot path pays
// only a nil check when disabled.
func (e *Engine) SetSink(s obs.Sink) { e.sink = s }

// Tracing reports whether a trace sink is installed. Emitters use it to
// skip event construction (and its string formatting) when tracing is off.
func (e *Engine) Tracing() bool { return e.sink != nil }

// Emit sends a trace event to the sink. The caller fills T (span starts
// may lie in the past; EmitNow stamps the current time). No-op without a
// sink.
func (e *Engine) Emit(ev obs.TraceEvent) {
	if e.sink == nil {
		return
	}
	e.sink.Emit(ev)
}

// EmitNow sends a trace event stamped with the current simulated time.
func (e *Engine) EmitNow(ev obs.TraceEvent) {
	if e.sink == nil {
		return
	}
	ev.T = int64(e.now)
	e.sink.Emit(ev)
}

func (e *Engine) nextSeq() uint64 {
	e.seq++
	return e.seq
}

// alloc places ev in a pooled record and returns its index.
func (e *Engine) alloc(ev event) int32 {
	if n := len(e.free) - 1; n >= 0 {
		idx := e.free[n]
		e.free = e.free[:n]
		e.pool[idx] = ev
		return idx
	}
	e.pool = append(e.pool, ev)
	return int32(len(e.pool) - 1)
}

// release clears a record (dropping its handler reference) and returns
// its slot to the free list.
func (e *Engine) release(idx int32) {
	e.pool[idx] = event{}
	e.free = append(e.free, idx)
}

// less orders pooled records by (time, sequence).
func (e *Engine) less(a, b int32) bool {
	ea, eb := &e.pool[a], &e.pool[b]
	if ea.t != eb.t {
		return ea.t < eb.t
	}
	return ea.seq < eb.seq
}

// heapPush inserts a record index into the future-event heap.
func (e *Engine) heapPush(idx int32) {
	h := append(e.eheap, idx)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.eheap = h
}

// heapPop removes and returns the minimum record index.
func (e *Engine) heapPop() int32 {
	h := e.eheap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && e.less(h[r], h[l]) {
			c = r
		}
		if !e.less(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	e.eheap = h
	return top
}

// readyPush appends a record index to the current-instant FIFO ring.
func (e *Engine) readyPush(idx int32) {
	if e.rcount == len(e.ready) {
		grown := make([]int32, max(16, 2*len(e.ready)))
		for i := 0; i < e.rcount; i++ {
			grown[i] = e.ready[(e.rhead+i)&(len(e.ready)-1)]
		}
		e.ready = grown
		e.rhead = 0
	}
	e.ready[(e.rhead+e.rcount)&(len(e.ready)-1)] = idx
	e.rcount++
}

// readyPop removes the oldest ring entry. Must only be called when rcount>0.
func (e *Engine) readyPop() int32 {
	idx := e.ready[e.rhead]
	e.rhead = (e.rhead + 1) & (len(e.ready) - 1)
	e.rcount--
	return idx
}

// nextEvent reports the index of the next due event — ring head vs heap
// top by (time, seq) — without removing it. Callers must ensure at least
// one event is pending. Ring entries are due at the current instant and
// necessarily carry larger sequence numbers than same-time heap entries,
// so the heap wins ties.
func (e *Engine) nextEvent() (idx int32, fromRing bool) {
	if e.rcount > 0 && (len(e.eheap) == 0 || !e.less(e.eheap[0], e.ready[e.rhead])) {
		return e.ready[e.rhead], true
	}
	return e.eheap[0], false
}

// schedule pools the event and routes it to the ready ring (events due now)
// or the heap (future events).
func (e *Engine) schedule(ev event) {
	if ev.t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past: %v < %v", ev.t, e.now))
	}
	if ev.t == e.now {
		e.readyPush(e.alloc(ev))
		return
	}
	e.heapPush(e.alloc(ev))
}

// Schedule runs fn at the current time plus d. It may be called from within
// a process or from another callback.
func (e *Engine) Schedule(d Duration, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.schedule(event{t: e.now + Time(d), seq: e.nextSeq(), h: funcHandler(fn)})
}

// ScheduleHandler runs h.HandleEvent at the current time plus d. Unlike a
// Schedule closure it captures nothing: a component that embeds its timer
// state schedules itself with zero allocation.
func (e *Engine) ScheduleHandler(d Duration, h Handler) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.schedule(event{t: e.now + Time(d), seq: e.nextSeq(), h: h})
}

// ErrPanicked is wrapped by the run error of a simulation in which a
// process, a callback or a handler panicked, so a caller can tell the panic
// from an ordinary failure (errors.Is) and raise it again.
var ErrPanicked = errors.New("panicked")

// fail records a fatal error (e.g. a panicking process); Run returns it.
func (e *Engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
	e.stopped = true
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Resume clears a Stop so Run/RunUntil can continue processing the
// remaining events. It does not clear a recorded process error, and it does
// not reopen a closed engine.
func (e *Engine) Resume() { e.stopped = e.err != nil || e.closed }

// Run processes events until the heap is empty, Stop is called, or a process
// panics. It returns the first process error, if any. Processes still parked
// on mailboxes when the heap drains (server processes) stay parked, so a
// later Run can continue; Close retires them once the engine is done.
func (e *Engine) Run() error { return e.RunUntil(Time(1<<62 - 1)) }

// Close retires the engine: every process that has not finished is killed
// and resumed until its body has unwound, then every idle coroutine is
// stopped, so none of the engine's coroutines survives, and all pending
// events are dropped. A process unwinds through the errKilled panic,
// running its deferred calls; a deferred call that parks or holds again
// just unwinds again, and whatever the unwinding schedules or spawns is
// discarded with the rest. Close must be called from outside the engine's
// processes, with no Run in progress. Afterwards the engine does not run
// again: Run returns at once and Spawn panics. A second Close is a no-op.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.stopped = true
	for len(e.procs) > 0 {
		p := e.procs[len(e.procs)-1]
		p.killed = true
		for !p.finished {
			p.HandleEvent()
		}
	}
	for _, c := range e.idle {
		c.stop()
	}
	e.closed = true
	e.idle = nil
	e.pool, e.free, e.eheap, e.ready = nil, nil, nil, nil
	e.rhead, e.rcount = 0, 0
}

// RunUntil processes events with timestamps <= deadline, then advances the
// clock to the deadline if events remain beyond it. The clock never moves
// backwards: a deadline earlier than Now runs nothing and leaves the clock
// where it is. See Run for the return value.
// A panic in a callback or a handler fails the run like a panicking
// process: RunUntil recovers it into an ErrPanicked error naming the
// handler, and the engine stays stopped.
func (e *Engine) RunUntil(deadline Time) (err error) {
	var ev event
	defer func() {
		if r := recover(); r != nil {
			what := "callback"
			if _, ok := ev.h.(funcHandler); !ok {
				what = fmt.Sprintf("handler %q", handlerName(ev.h))
			}
			e.fail(fmt.Errorf("sim: %s %w: %v\n%s", what, ErrPanicked, r, debug.Stack()))
			err = e.err
		}
	}()
	e.deadline = deadline
	for !e.stopped && (e.rcount > 0 || len(e.eheap) > 0) {
		next, fromRing := e.nextEvent()
		if e.pool[next].t > deadline {
			e.now = max(e.now, deadline)
			return e.err
		}
		var idx int32
		if fromRing {
			idx = e.readyPop()
		} else {
			idx = e.heapPop()
		}
		ev = e.pool[idx]
		e.release(idx)
		e.now = ev.t
		if p, ok := ev.h.(*Proc); ok && p.finished {
			continue // process already ran to completion or unwound
		}
		ev.h.HandleEvent()
		e.stats.Events++
	}
	return e.err
}

// Proc is a simulation process: a body running on a pooled coroutine that
// the engine loop resumes, one process at a time. All Proc methods must be
// called from the process's own body.
type Proc struct {
	eng      *Engine
	name     string // the Spawn name
	co       *coro  // the coroutine running the body
	killed   bool   // Close is retiring it; unwind at next resume
	finished bool   // body has returned (normally, by panic, or by Close)
	slot     int32  // index in the engine's live-process set
	qid      int64  // query the process is currently working for (0 = none)
	err      error  // error slot of the step form the process waits in
}

// Name reports the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// HandleEvent resumes the process, which is the Handler of its own
// wake-ups: it switches into p's coroutine and returns when p next yields
// (holds, parks or finishes). It implements the engine's Handler interface.
// Besides the engine, only a handler that a parked process waits on calls
// it, to resume the process inside the handler's own event, as a wake-up
// would one event later: the query collector resumes the terminal parked
// in Submit so. That handler must not touch the state it shares with the
// process afterwards.
func (p *Proc) HandleEvent() {
	p.eng.stats.Switches++
	p.co.next()
}

// Now reports the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// SetQID tags the process with the query it is currently serving; trace
// events emitted for work this process requests (facility services, disk
// transfers) carry the tag, tying resource activity back to queries. Zero
// clears the tag.
func (p *Proc) SetQID(id int64) { p.qid = id }

// QID reports the process's current query tag (0 = none).
func (p *Proc) QID() int64 { return p.qid }

// ErrSlot is the process's error slot: a wait of a resumable step form
// the process blocks in (hw.Waiter) that fails after it began puts its
// error there before waking the process.
func (p *Proc) ErrSlot() *error { return &p.err }

// Spawn creates a process that begins executing fn at the current time
// (after already-scheduled events at this timestamp).
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt creates a process that begins executing fn at time t: it enters
// the live-process set on a pooled coroutine and its first resume is
// scheduled. A process that Close retires before its first resume never
// runs fn.
func (e *Engine) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: Spawn on a closed engine")
	}
	p := &Proc{eng: e, name: name, slot: int32(len(e.procs))}
	p.co = e.coroFor(p, fn)
	e.procs = append(e.procs, p)
	e.stats.Spawns++
	e.schedule(event{t: t, seq: e.nextSeq(), h: p})
	return p
}

// removeProc swap-removes a finished process from the live-process set.
func (e *Engine) removeProc(p *Proc) {
	last := len(e.procs) - 1
	moved := e.procs[last]
	e.procs[p.slot] = moved
	moved.slot = p.slot
	e.procs[last] = nil
	e.procs = e.procs[:last]
}

// errKilled is the sentinel panic used to unwind a killed process.
var errKilled = new(int)

// yield returns control to the engine loop until the process is resumed.
//
// Self-resume fast path: when the next due event within the active
// RunUntil horizon is this process's own resume, as after a Hold that
// nothing else precedes, yield dispatches it in place (pop, release,
// advance the clock) and returns without switching. Any other next event
// sends the process back to the loop, which dispatches it; only the loop
// resumes processes, and it pops events in the same (time, seq) order, so
// the fast path cannot change the event order.
func (p *Proc) yield() {
	e := p.eng
	if !e.stopped && (e.rcount > 0 || len(e.eheap) > 0) {
		next, fromRing := e.nextEvent()
		ev := &e.pool[next]
		// ev.h == Handler(p), as a type assertion: two compares, where
		// the interface comparison calls into the runtime.
		if q, _ := ev.h.(*Proc); q == p && ev.t <= e.deadline {
			if fromRing {
				e.readyPop()
			} else {
				e.heapPop()
			}
			e.now = ev.t
			e.release(next)
			e.stats.Events++
			e.stats.SelfResumes++
			if p.killed {
				panic(errKilled)
			}
			return
		}
	}
	p.co.yield(struct{}{})
	if p.killed {
		panic(errKilled)
	}
}

// Hold advances the process by d simulated time. When the process's own
// wake-up turns out to be the next due event, yield's self-resume fast
// path advances the clock in place and Hold returns without a switch.
func (p *Proc) Hold(d Duration) {
	if d < 0 {
		panic("sim: negative hold")
	}
	e := p.eng
	e.schedule(event{t: e.now + Time(d), seq: e.nextSeq(), h: p})
	p.yield()
}

// Park blocks the process with no scheduled wake-up; some other entity must
// call Wake or schedule the process as a Handler. Mailboxes, facilities and
// the disk park their waiting processes this way.
func (p *Proc) Park() {
	p.eng.parked++
	defer func() { p.eng.parked-- }()
	p.yield()
}

// Wake schedules the parked process to resume at the current time.
func (e *Engine) Wake(p *Proc) {
	e.schedule(event{t: e.now, seq: e.nextSeq(), h: p})
}

// Active reports the number of live processes (running, held, or parked).
func (e *Engine) Active() int { return len(e.procs) }

// Parked reports the number of processes blocked with no scheduled event.
func (e *Engine) Parked() int { return e.parked }

// Pending reports the number of scheduled events (heap and ready ring).
func (e *Engine) Pending() int { return len(e.eheap) + e.rcount }
