//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// coro is a pooled process coroutine: an iter.Pull coroutine that runs one
// process body after another. Only the engine loop (RunUntil, Close) calls
// next, which switches into the coroutine on the calling thread; the
// running process switches back with yield when it holds, parks or
// finishes. A coroutine whose body has finished waits on the engine's idle
// list until Spawn hands it the next body, and Close retires idle
// coroutines with stop.
type coro struct {
	eng   *Engine
	p     *Proc       // the process whose body runs at the next resume
	fn    func(*Proc) // its body
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// coroFor returns a coroutine for p to run fn on: an idle one when the pool
// has one, else a new one.
func (e *Engine) coroFor(p *Proc, fn func(*Proc)) *coro {
	var c *coro
	if n := len(e.idle) - 1; n >= 0 {
		c = e.idle[n]
		e.idle[n] = nil
		e.idle = e.idle[:n]
		e.stats.CoroutinesReused++
	} else {
		c = &coro{eng: e}
		c.next, c.stop = iter.Pull(c.loop)
		e.stats.CoroutinesCreated++
	}
	c.p, c.fn = p, fn
	return c
}

// loop is the coroutine's whole life: run the assigned body, join the idle
// list, and hand control back to the engine loop until the next resume
// brings a new body or stop retires the coroutine.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.run()
		c.eng.idle = append(c.eng.idle, c)
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes the assigned body to completion. Close unwinds it through
// the errKilled panic, which is recovered here; any other panic fails the
// run with an ErrPanicked error carrying the process's name and stack.
// Either way the coroutine survives to run the next body. A process Close
// kills before its first resume never runs its body.
func (c *coro) run() {
	p, fn, e := c.p, c.fn, c.eng
	c.p, c.fn = nil, nil
	defer func() {
		p.finished = true
		e.removeProc(p)
		if r := recover(); r != nil && r != errKilled {
			e.fail(fmt.Errorf("sim: process %q %w: %v\n%s", p.Name(), ErrPanicked, r, debug.Stack()))
		}
	}()
	if !p.killed {
		fn(p)
	}
}
