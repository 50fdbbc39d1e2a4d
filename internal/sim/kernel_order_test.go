package sim_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// updateKernelOrder regenerates testdata/kernel_order.golden: go test
// ./internal/sim -run KernelOrderGolden -update-kernel. Only a change that
// means to alter the kernel's event order may do so.
var updateKernelOrder = flag.Bool("update-kernel", false, "rewrite testdata/kernel_order.golden from the current event order")

// The kernel-order scripts drive every way of scheduling an event through
// one engine, with test-support processes (simtest) as the actors: spawns
// (Spawn, SpawnAt), holds, Park and Wake, facility use at both priorities
// in one queue with handler requests, callbacks, scheduled handlers,
// mailbox waits with and without a timeout and a consumer handler,
// RunUntil horizons and a Close in the middle of a run. Every step is logged with the clock and the number of
// events dispatched so far, so the log pins the exact event order.

// Script operations of an actor process.
const (
	kHold            = iota // hold arg·5µs; arg 0 holds for zero time
	kPark                   // park until another actor's kWake
	kWake                   // wake the longest-parked kPark process, or else the last finished actor: now (even arg) or from a callback arg·5µs later
	kUse                    // use the facility for (arg%4+1)·5µs at priority arg%2
	kRequest                // request the same service for a handler
	kSchedule               // schedule a callback arg·5µs later
	kScheduleHandler        // schedule a handler arg·5µs later
	kPut                    // put a message on the Get mailbox (even arg) or the consumed one
	kGet                    // Get from the Get mailbox
	kGetTimeout             // GetTimeout on the Get mailbox, timing out after (arg+1)·5µs
	kSpawn                  // spawn a child holding arg·5µs: by Spawn (arg%3 < 2) or SpawnAt arg·5µs later
)

// kernelOpKinds maps a script byte's low nibble to an operation.
var kernelOpKinds = [16]int{
	kHold, kHold, kHold, kPark, kWake, kWake, kUse, kUse,
	kRequest, kSchedule, kScheduleHandler, kPut, kPut, kGet, kGetTimeout, kSpawn,
}

type kernelOp struct{ kind, arg int }

// kernelScript is one run: each actor's operations, whether a trace sink
// logs the facility's spans, and the RunUntil horizons: rounds steps of
// step each, then either a Close with events still pending or a Run to
// the end and a Close.
type kernelScript struct {
	actors   [][]kernelOp
	trace    bool
	step     sim.Duration
	rounds   int
	closeMid bool
}

// decodeKernelScript turns arbitrary bytes into a script: the first byte
// gives the actor count (1–5), the second is unused (it chose the actors
// a process record spawned, when the kernel had those), the third the
// horizons, Close and tracing, and each later byte
// is the next operation of the actors in turn (low nibble the kind, high
// nibble the argument).
func decodeKernelScript(data []byte) kernelScript {
	for len(data) < 3 {
		data = append(data, 0)
	}
	s := kernelScript{
		actors:   make([][]kernelOp, 1+int(data[0])%5),
		step:     sim.Duration(data[2]&7+1) * 40 * sim.Microsecond,
		rounds:   1 + int(data[2]>>3)&3,
		closeMid: data[2]&0x20 != 0,
		trace:    data[2]&0x40 != 0,
	}
	for i, b := range data[3:] {
		w := i % len(s.actors)
		s.actors[w] = append(s.actors[w], kernelOp{kind: kernelOpKinds[b&15], arg: int(b >> 4)})
	}
	return s
}

// orderToken is the model's record of an event the script scheduled: when
// it is due, and its place in the order of every scheduling call.
type orderToken struct {
	due sim.Time
	n   int64
}

// scriptRun interprets one script on one engine. Beside the log it keeps
// a model of the event order, built at schedule time, and records the
// first dispatch that breaks it: one that goes back in time, runs past the
// active RunUntil horizon, runs at another instant than it was due, or
// runs before an event due at the same instant that was scheduled earlier.
type scriptRun struct {
	e       *sim.Engine
	f       *sim.Facility
	mbGet   *sim.Mailbox[int]            // read by Get and GetTimeout
	mbTake  *sim.Mailbox[int]            // drained by the consumer handler
	parked  []*simtest.Proc              // kPark processes not yet woken, oldest first
	done    []*simtest.Proc              // finished actors, whose wake-up the kernel drops
	wakes   map[*simtest.Proc]orderToken // the tracked Wake of each woken kPark process
	values  int                          // message values and query tags handed out
	log     []string
	horizon sim.Time

	scheduled int64    // scheduling calls so far
	lastT     sim.Time // clock at the last logged step
	last      orderToken
	violation string
}

func (r *scriptRun) logf(actor, format string, args ...any) {
	now := r.e.Now()
	switch {
	case now < r.lastT:
		r.violate("%s at %d went back in time from %d", actor, now, r.lastT)
	case now > r.horizon:
		r.violate("%s at %d ran past the horizon %d", actor, now, r.horizon)
	}
	r.lastT = now
	r.log = append(r.log, fmt.Sprintf("%d %d %s ", now, r.e.Stats().Events, actor)+fmt.Sprintf(format, args...))
}

func (r *scriptRun) violate(format string, args ...any) {
	if r.violation == "" {
		r.violation = fmt.Sprintf(format, args...)
	}
}

// track returns the token of an event due d from now. It must be called
// immediately before the kernel call that schedules the event.
func (r *scriptRun) track(d sim.Duration) orderToken {
	r.scheduled++
	return orderToken{due: r.e.Now() + sim.Time(d), n: r.scheduled}
}

// dispatched checks a tracked event as it runs.
func (r *scriptRun) dispatched(tok orderToken) {
	now := r.e.Now()
	if now != tok.due {
		r.violate("event %d due at %d ran at %d", tok.n, tok.due, now)
	}
	if tok.due == r.last.due && tok.n < r.last.n {
		r.violate("event %d ran after event %d, due at the same instant %d and scheduled later", tok.n, r.last.n, now)
	}
	r.last = tok
}

// scriptHandler is a scheduled or requested handler that logs its run.
type scriptHandler struct {
	r       *scriptRun
	name    string
	tok     orderToken
	tracked bool
}

func (h *scriptHandler) HandleEvent() {
	if h.tracked {
		h.r.dispatched(h.tok)
	}
	h.r.logf(h.name, "run")
}

func (h *scriptHandler) Name() string { return h.name }

// scriptConsumer is the consumer handler of mbTake.
type scriptConsumer struct{ r *scriptRun }

func (c *scriptConsumer) HandleEvent() {
	for v, ok := c.r.mbTake.Take(); ok; v, ok = c.r.mbTake.Take() {
		c.r.logf("consumer", "take %d", v)
	}
}

// spawn starts an actor at t.
func (r *scriptRun) spawn(t sim.Time, name string, ops []kernelOp) {
	tok := r.track(sim.Duration(t - r.e.Now()))
	switch {
	case t == r.e.Now():
		simtest.Spawn(r.e, name, func(p *simtest.Proc) { r.act(p, name, ops, tok) })
	default:
		simtest.SpawnAt(r.e, t, name, func(p *simtest.Proc) { r.act(p, name, ops, tok) })
	}
}

// wakeParked wakes the longest-parked kPark process. Without one it wakes
// the last actor to finish, which schedules nothing and counts no event.
func (r *scriptRun) wakeParked(by string) {
	if len(r.parked) == 0 {
		if n := len(r.done); n > 0 {
			r.logf(by, "wake finished %s", r.done[n-1].Name())
			r.done[n-1].Wake()
			return
		}
		r.logf(by, "wake none")
		return
	}
	p := r.parked[0]
	r.parked = r.parked[1:]
	r.logf(by, "wake %s", p.Name())
	r.wakes[p] = r.track(0)
	p.Wake()
}

// act runs an actor's operations.
func (r *scriptRun) act(p *simtest.Proc, name string, ops []kernelOp, tok orderToken) {
	r.dispatched(tok)
	r.logf(name, "start")
	e := r.e
	for step, op := range ops {
		r.values++
		v := r.values
		d := sim.Duration(op.arg) * 5 * sim.Microsecond
		switch op.kind {
		case kHold:
			tok := r.track(d)
			p.Hold(d)
			r.dispatched(tok)
		case kPark:
			r.parked = append(r.parked, p)
			p.Park()
			r.dispatched(r.wakes[p])
		case kWake:
			if op.arg%2 == 0 {
				r.wakeParked(name)
				break
			}
			cb := r.track(d)
			e.Schedule(d, func() {
				r.dispatched(cb)
				r.wakeParked(name + ".cb")
			})
		case kUse:
			p.SetQID(int64(v))
			simtest.Use(p, r.f, sim.Duration(op.arg%4+1)*5*sim.Microsecond, op.arg%2)
		case kRequest:
			h := &scriptHandler{r: r, name: fmt.Sprintf("%s.req%d", name, step)}
			r.f.Request(h, sim.Duration(op.arg%4+1)*5*sim.Microsecond, op.arg%2, 0)
		case kSchedule:
			cb := r.track(d)
			e.Schedule(d, func() {
				r.dispatched(cb)
				r.logf(name+".cb", "callback %d", v)
			})
		case kScheduleHandler:
			h := &scriptHandler{r: r, name: fmt.Sprintf("%s.h%d", name, step), tracked: true}
			h.tok = r.track(d)
			e.ScheduleHandler(d, h)
		case kPut:
			if op.arg%2 == 0 {
				r.mbGet.Put(v)
			} else {
				r.mbTake.Put(v)
			}
		case kGet:
			r.logf(name, "got %d", simtest.Get(p, r.mbGet))
			continue
		case kGetTimeout:
			got, ok := simtest.GetTimeout(p, r.mbGet, d+5*sim.Microsecond)
			r.logf(name, "got %d %v", got, ok)
			continue
		case kSpawn:
			child := []kernelOp{{kind: kHold, arg: op.arg}}
			cname := fmt.Sprintf("%s.c%d", name, step)
			if op.arg%3 < 2 {
				r.spawn(e.Now(), cname, child)
			} else {
				r.spawn(e.Now()+sim.Time(d), cname, child)
			}
		}
		r.logf(name, "op %d kind=%d arg=%d", step, op.kind, op.arg)
	}
	r.logf(name, "end")
	r.done = append(r.done, p)
}

// runKernelScript runs s on a fresh engine and returns its log, ending
// with the final kernel counters, and the first violation of the order
// model, if any.
func runKernelScript(s kernelScript) (log []string, violation string) {
	e := sim.New()
	r := &scriptRun{
		e:      e,
		f:      sim.NewFacility(e, "cpu"),
		mbGet:  sim.NewMailbox[int](e, "get"),
		mbTake: sim.NewMailbox[int](e, "take"),
		wakes:  make(map[*simtest.Proc]orderToken),
	}
	if s.trace {
		e.SetSink(obs.SinkFunc(func(ev obs.TraceEvent) {
			r.log = append(r.log, fmt.Sprintf("%d %d trace %s %s start=%d dur=%d qid=%d",
				e.Now(), e.Stats().Events, ev.Category, ev.Name, ev.T, ev.Dur, ev.QueryID))
		}))
	}
	r.mbTake.Consume(&scriptConsumer{r: r})
	for i, ops := range s.actors {
		r.spawn(0, fmt.Sprintf("a%d", i), ops)
	}
	for i := 1; i <= s.rounds; i++ {
		r.horizon = sim.Time(i) * sim.Time(s.step)
		if err := e.RunUntil(r.horizon); err != nil {
			r.violate("RunUntil: %v", err)
		}
		r.logf("kernel", "until %d pending=%d active=%d parked=%d", r.horizon, e.Pending(), simtest.Active(e), simtest.Parked(e))
	}
	if !s.closeMid {
		r.horizon = sim.Time(1<<62 - 1)
		if err := e.Run(); err != nil {
			r.violate("Run: %v", err)
		}
		r.logf("kernel", "drained pending=%d active=%d parked=%d", e.Pending(), simtest.Active(e), simtest.Parked(e))
	}
	simtest.Close(e)
	r.logf("kernel", "closed pending=%d active=%d", e.Pending(), simtest.Active(e))
	r.log = append(r.log, e.Stats().String())
	return r.log, r.violation
}

// kernelOrderScripts is the number of seeded scripts the golden pins.
const kernelOrderScripts = 300

// TestKernelOrderGolden runs seeded random scripts and compares a SHA-256
// of each script's log, and its final kernel counters, with
// testdata/kernel_order.golden. Any change to the order in which the
// kernel dispatches events, to what it counts, or to the spans a facility
// emits for a process or a handler changes a line.
func TestKernelOrderGolden(t *testing.T) {
	src := rng.NewFactory(34).Stream("kernel-order")
	var got bytes.Buffer
	for n := 0; n < kernelOrderScripts; n++ {
		data := make([]byte, 3+src.Intn(90))
		for i := range data {
			data[i] = byte(src.Intn(256))
		}
		log, violation := runKernelScript(decodeKernelScript(data))
		if violation != "" {
			t.Fatalf("script %d: %s", n, violation)
		}
		sum := sha256.Sum256([]byte(strings.Join(log[:len(log)-1], "\n")))
		fmt.Fprintf(&got, "%03d %x %d %s\n", n, sum[:12], len(log), log[len(log)-1])
	}
	path := filepath.Join("testdata", "kernel_order.golden")
	if *updateKernelOrder {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-kernel to create it)", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		if g, w := logLine(gotLines, i), logLine(wantLines, i); g != w {
			t.Fatalf("kernel order drifted at golden line %d\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}

// FuzzEventOrder drives the script interpreter from arbitrary bytes and
// holds every run to the order model: no dispatch goes back in time or
// past the active RunUntil horizon, every tracked event runs at the
// instant it was due, and events due at one instant run in the order they
// were scheduled.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0x10, 0x20, 0})
	f.Add([]byte{2, 5, 0x1b, 0x03, 0x14, 0x26, 0x2b, 0x0d, 0x3e, 0x0f})
	f.Add([]byte{4, 0x1f, 0x4a, 0x07, 0x18, 0x29, 0x3a, 0x0b, 0x1c, 0x2d, 0x1e, 0x0f, 0x30})
	f.Add([]byte{1, 2, 0x73, 0x11, 0x08, 0x18, 0x06, 0x17, 0x05, 0x15, 0x04})
	f.Add(bytes.Repeat([]byte{3, 1, 0x22, 0x09, 0x0a, 0x13, 0x24, 0x0c, 0x1d}, 4))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 300 {
			data = data[:300]
		}
		if _, violation := runKernelScript(decodeKernelScript(data)); violation != "" {
			t.Fatal(violation)
		}
	})
}
