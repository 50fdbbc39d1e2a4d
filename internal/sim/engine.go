// Package sim is a discrete-event simulation kernel. It plays the role
// DeNet [Liv88] plays in the paper: model components (disk managers, CPU
// schedulers, network interfaces, relational operators, terminals) are
// handlers that schedule themselves after simulated time, use facilities,
// and exchange messages through mailboxes, while the kernel advances a
// global virtual clock.
//
// There is one kind of actor, the Handler. A long-lived loop keeps its
// state in its own record and runs one step per event, so every wake-up
// flows through a single event order, by (time, sequence number), on the
// loop's own thread. Exactly one handler runs at a time, so runs are fully
// deterministic for a fixed seed and configuration.
package sim

import (
	"errors"
	"fmt"
	"runtime"
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
// callback and a component are both Handlers, so the record is four
// words. Records live in the engine's pool and are addressed by
// index; the heap and ready ring order indices, never records, so
// scheduling allocates nothing once the pool is warm.
type event struct {
	t   Time
	seq uint64
	h   Handler
}

// Handler is the kernel's one event target. A Schedule callback runs
// itself (funcHandler), and a component with timer state in its own
// struct (a facility's in-service completion, a disk transfer, a
// mailbox's consumer, a terminal between queries) schedules itself with
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

// Engine is the simulation kernel. Create one with New, schedule
// handlers, then call Run or RunUntil. An Engine is single-threaded by
// construction and must not be shared across goroutines.
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

	stopped bool
	closed  bool
	err     error
	sink    obs.Sink // structured trace sink; nil = tracing disabled
	stats   Stats
}

// Stats counts what the kernel itself has done since New: the simulator's
// cost, as opposed to anything about the simulated machine. Every count is
// deterministic for a fixed seed and configuration.
type Stats struct {
	// Events counts dispatched events: callbacks and handlers.
	Events int64 `json:"events"`
}

func (s Stats) String() string { return fmt.Sprintf("events=%d", s.Events) }

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

// EmitNow sends a trace event stamped with the current simulated time. It
// is a no-op without a sink.
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
// a handler or from another callback.
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
// callback or a handler panicked, so a caller can tell the panic
// from an ordinary failure (errors.Is) and raise it again.
var ErrPanicked = errors.New("panicked")

// fail records a fatal error (a panicking handler); Run returns it.
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
// remaining events. It does not clear a recorded run error, and it does
// not reopen a closed engine.
func (e *Engine) Resume() { e.stopped = e.err != nil || e.closed }

// Run processes events until the heap is empty, Stop is called, or a
// handler panics. It returns the first run error, if any. A handler that
// waits on a mailbox when the heap drains (a server loop) stays
// registered there, so a later Run can continue.
func (e *Engine) Run() error { return e.RunUntil(Time(1<<62 - 1)) }

// Close retires the engine: all pending events are dropped, with the
// handlers they would have run. Afterwards the engine does not run again:
// Run returns at once. Close must be called with no Run in progress. A
// second Close is a no-op.
func (e *Engine) Close() {
	e.stopped, e.closed = true, true
	e.pool, e.free, e.eheap, e.ready = nil, nil, nil, nil
	e.rhead, e.rcount = 0, 0
}

// RunUntil processes events with timestamps <= deadline, then advances the
// clock to the deadline if events remain beyond it. The clock never moves
// backwards: a deadline earlier than Now runs nothing and leaves the clock
// where it is. See Run for the return value.
// A panic in a callback or a handler fails the run: RunUntil recovers it
// into an ErrPanicked error naming the handler, and the engine stays
// stopped.
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
		ev.h.HandleEvent()
		e.stats.Events++
		// The loop never blocks, so on one P the garbage collector's
		// fractional mark worker would run only at the runtime's
		// time-slice preemptions, and each mark phase, with its write
		// barriers, would stretch over many events. Yielding every 4096
		// events lets it run.
		if e.stats.Events&4095 == 0 {
			runtime.Gosched()
		}
	}
	return e.err
}

// Pending reports the number of scheduled events (heap and ready ring).
func (e *Engine) Pending() int { return len(e.eheap) + e.rcount }
