//go:build go1.23

// Package simtest runs sequential test scripts as processes on a
// sim.Engine. The kernel has one kind of actor, the sim.Handler; a test
// that reads best as a script (hold, use a facility, wait for a message,
// submit a query and check its result) spawns a Proc instead. A Proc is
// an iter.Pull coroutine that is its own Handler: every wake-up is one
// event the engine dispatches, scheduled with ScheduleHandler, and the
// body runs on the engine loop's thread, one process at a time, so a
// script is as deterministic as the handlers it drives. It also
// implements hw.Waiter, so a script can run the hardware's step forms.
//
// The package is test support: no binary links it.
package simtest

import (
	"iter"
	"sync"

	"repro/internal/sim"
)

// Proc is a simulation process: a body running on a coroutine that only
// its own events resume. All methods but HandleEvent, Name and the
// hw.Waiter accessors must be called from the process's own body.
type Proc struct {
	eng      *sim.Engine
	name     string
	next     func() (struct{}, bool)
	yield    func(struct{}) bool
	killed   bool  // Close is retiring it; unwind at the next resume
	finished bool  // body has returned (normally, by panic, or by Close)
	qid      int64 // query the process works for (0 = none)
	err      error // error slot of the step form the process waits in
}

// group is one engine's live processes, oldest first, and how many of
// them are parked.
type group struct {
	procs  []*Proc
	parked int
}

var (
	mu     sync.Mutex
	groups = map[*sim.Engine]*group{}
)

// groupOf returns e's live-process group, creating it if asked.
func groupOf(e *sim.Engine, create bool) *group {
	mu.Lock()
	defer mu.Unlock()
	g := groups[e]
	if g == nil && create {
		g = &group{}
		groups[e] = g
	}
	return g
}

// finish takes p out of its engine's group, dropping the group with its
// last process.
func (p *Proc) finish() {
	p.finished = true
	mu.Lock()
	defer mu.Unlock()
	g := groups[p.eng]
	for i, q := range g.procs {
		if q == p {
			g.procs = append(g.procs[:i], g.procs[i+1:]...)
			break
		}
	}
	if len(g.procs) == 0 {
		delete(groups, p.eng)
	}
}

// errKilled is the sentinel panic that unwinds a killed process.
var errKilled = new(int)

// Spawn creates a process that begins executing fn at the current time,
// after the events already scheduled for it.
func Spawn(e *sim.Engine, name string, fn func(p *Proc)) *Proc {
	return SpawnAt(e, e.Now(), name, fn)
}

// SpawnAt creates a process that begins executing fn at time t. A process
// that Close retires before its first resume never runs fn.
func SpawnAt(e *sim.Engine, t sim.Time, name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.finish()
			if r := recover(); r != nil && r != errKilled {
				panic(r) // the engine's RunUntil reports it, naming p
			}
		}()
		if !p.killed {
			fn(p)
		}
	})
	g := groupOf(e, true)
	g.procs = append(g.procs, p)
	e.ScheduleHandler(sim.Duration(t-e.Now()), p)
	return p
}

// Name reports the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// HandleEvent resumes the process: it switches into p's coroutine and
// returns when p next holds, parks or finishes. Besides the engine, a
// handler that a parked process waits on may call it, to resume the
// process inside the handler's own event (a query's completion does). A
// finished process ignores it.
func (p *Proc) HandleEvent() {
	if !p.finished {
		p.next()
	}
}

// QID reports the query the process works for (hw.Waiter).
func (p *Proc) QID() int64 { return p.qid }

// SetQID tags the process's later requests with a query; zero clears it.
func (p *Proc) SetQID(id int64) { p.qid = id }

// ErrSlot is the process's error slot (hw.Waiter): a step form that fails
// after its wait began puts its error there before waking the process.
func (p *Proc) ErrSlot() *error { return &p.err }

// Now reports the current simulated time.
func (p *Proc) Now() sim.Time { return p.eng.Now() }

// suspend returns control to the engine until the process is resumed.
func (p *Proc) suspend() {
	p.yield(struct{}{})
	if p.killed {
		panic(errKilled)
	}
}

// Hold advances the process by d simulated time: one event, d from now.
func (p *Proc) Hold(d sim.Duration) {
	p.eng.ScheduleHandler(d, p)
	p.suspend()
}

// Park blocks the process with no scheduled wake-up, until Wake or a
// handler it waits on resumes it.
func (p *Proc) Park() {
	g := groupOf(p.eng, false)
	g.parked++
	defer func() { g.parked-- }()
	p.suspend()
}

// Wake schedules a parked process to resume at the current time. Waking a
// finished process schedules nothing, so it costs no event.
func (p *Proc) Wake() {
	if !p.finished {
		p.eng.ScheduleHandler(0, p)
	}
}

// Use requests service from f at prio for p, tagged with p's query, and
// parks p until the service completes.
func Use(p *Proc, f *sim.Facility, service sim.Duration, prio int) {
	f.Request(p, service, prio, p.qid)
	p.Park()
}

// Get removes and returns the oldest message of m, parking p until one
// is available.
func Get[T any](p *Proc, m *sim.Mailbox[T]) T {
	for {
		if v, ok := m.Wait(p); ok {
			return v
		}
		p.Park()
	}
}

// GetTimeout is Get bounded by d: it returns ok false when d passes with
// no message for p. When a message and the deadline land on the same
// instant, the message wins.
func GetTimeout[T any](p *Proc, m *sim.Mailbox[T], d sim.Duration) (T, bool) {
	if m.Len() > 0 {
		return m.Wait(p)
	}
	timedOut, armed := false, true
	p.eng.Schedule(d, func() {
		// Expire only the call that scheduled the timer, and wake p only
		// if it still waits in m: a Put that already woke it wins.
		if armed {
			timedOut = true
			if m.Withdraw(p) {
				p.Wake()
			}
		}
	})
	for m.Len() == 0 && !timedOut {
		m.Wait(p)
		p.Park()
	}
	armed = false
	if m.Len() > 0 {
		return m.Wait(p)
	}
	var zero T
	return zero, false
}

// Active reports the number of e's live processes (running, held or
// parked).
func Active(e *sim.Engine) int {
	if g := groupOf(e, false); g != nil {
		return len(g.procs)
	}
	return 0
}

// Parked reports the number of e's processes blocked with no scheduled
// event.
func Parked(e *sim.Engine) int {
	if g := groupOf(e, false); g != nil {
		return g.parked
	}
	return 0
}

// Close kills every live process of e, newest first, resuming each until
// its body has unwound through its deferred calls, and then closes e. A
// process a deferred call spawns is killed too. Close must be called from
// outside e's processes, with no Run in progress.
func Close(e *sim.Engine) {
	for {
		g := groupOf(e, false)
		if g == nil {
			break
		}
		p := g.procs[len(g.procs)-1]
		p.killed = true
		for !p.finished {
			p.next()
		}
	}
	e.Close()
}
