package sim_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// The reference consumer of a mailbox is a process looping on Get: the
// shape every message relay of the machine model had. The consumer under
// test, attached by attachConsumer, must reproduce it exactly: the same
// global order of everything logged, at the same instants, in the same
// events, with one event fewer per run for each spawn event it saves. In
// timed mode the reference waits with GetTimeout, as the host's query
// collector did, and the consumer under test with TakeTimeout.

// What the consumer does with each message.
const (
	consumeRelay  = iota // log it, as an inbox dispatcher forwards a message
	consumeCharge        // serve it on a facility first, as a NIC receiver charges its CPU
	consumeTimed         // wait for it with a timeout, as the query collector waits for replies
)

// timeoutOf is the timeout of a timed consumer's k-th wait: none, as a
// collector waits with neither an operator timeout nor a deadline, or a
// few multiples of the actors' 10µs steps, so timeouts and puts share
// instants.
func timeoutOf(k int) sim.Duration { return sim.Duration(k%4) * 10 * sim.Microsecond }

// Script operations of the actor processes.
const (
	cPut         = iota // put one message
	cPutPair            // put two messages in one event
	cHold               // hold arg·10µs (arg 0 holds for zero time)
	cCallbackPut        // schedule a callback that puts a message arg·10µs later
	cReady              // schedule a zero-delay callback: another event on the ready ring
	cUse                // use the facility for (arg%4+1)·5µs at priority arg%2
	cDrop               // SetDrop(arg%2 == 0)
)

// consumerOpKinds maps a script byte's low nibble to an operation, putting
// most weight on puts.
var consumerOpKinds = [16]int{
	cPut, cPut, cPut, cPut, cPut, cPutPair, cPutPair, cHold, cHold,
	cCallbackPut, cCallbackPut, cReady, cUse, cUse, cDrop, cDrop,
}

type consumerOp struct{ kind, arg int }

// consumerScript is one run: the consumer's mode and each actor's
// operations.
type consumerScript struct {
	mode  int
	procs [][]consumerOp
}

// decodeConsumerScript turns arbitrary bytes into a script: the first byte
// picks the mode, the second the actor count (1–4), and each later byte is
// the next operation of the actors in turn (low nibble the kind, high
// nibble the argument).
func decodeConsumerScript(data []byte) consumerScript {
	var s consumerScript
	if len(data) < 2 {
		data = append(data, 0, 0)
	}
	s.mode = int(data[0]) % 3
	s.procs = make([][]consumerOp, 1+int(data[1])%4)
	for i, b := range data[2:] {
		w := i % len(s.procs)
		s.procs[w] = append(s.procs[w], consumerOp{kind: consumerOpKinds[b&15], arg: int(b >> 4)})
	}
	return s
}

// chargeOf is the facility service a charged message takes.
func chargeOf(v int) sim.Duration { return sim.Duration(v%4+1) * 5 * sim.Microsecond }

// consumerAttacher installs a consumer of mb on e and reports how many
// spawn events it scheduled. logf records a line of the run's log.
type consumerAttacher func(e *sim.Engine, mb *sim.Mailbox[int], f *sim.Facility, mode int, logf func(string, ...any)) int

// attachProcessConsumer is the reference: a process looping on Get, or on
// GetTimeout in timed mode.
func attachProcessConsumer(e *sim.Engine, mb *sim.Mailbox[int], f *sim.Facility, mode int, logf func(string, ...any)) int {
	simtest.Spawn(e, "consumer", func(p *simtest.Proc) {
		for k := 0; mode == consumeTimed; k++ {
			if d := timeoutOf(k); d == 0 {
				logf("consumed %d", simtest.Get(p, mb))
			} else if v, ok := simtest.GetTimeout(p, mb, d); ok {
				logf("consumed %d", v)
			} else {
				logf("timeout %d", k)
			}
		}
		for {
			v := simtest.Get(p, mb)
			if mode == consumeCharge {
				simtest.Use(p, f, chargeOf(v), v%2)
			}
			logf("consumed %d", v)
		}
	})
	return 1
}

// attachConsumer installs the consumer under test: a handler consuming
// the mailbox, which in charge mode requests the facility for itself. In
// timed mode the handler starts in an event of its own, where the
// reference process starts.
func attachConsumer(e *sim.Engine, mb *sim.Mailbox[int], f *sim.Facility, mode int, logf func(string, ...any)) int {
	if mode == consumeTimed {
		e.ScheduleHandler(0, &timedConsumer{mb: mb, logf: logf})
		return 1
	}
	mb.Consume(&handlerConsumer{mb: mb, f: f, mode: mode, logf: logf})
	return 0
}

// timedConsumer waits for each message with TakeTimeout, under the
// reference's timeouts.
type timedConsumer struct {
	mb   *sim.Mailbox[int]
	logf func(string, ...any)
	k    int // the wait in progress
}

func (c *timedConsumer) HandleEvent() {
	for {
		v, ok, done := c.mb.TakeTimeout(c, timeoutOf(c.k))
		if !done {
			return
		}
		if ok {
			c.logf("consumed %d", v)
		} else {
			c.logf("timeout %d", c.k)
		}
		c.k++
	}
}

// handlerConsumer drains its mailbox in one event. In charge mode it stops
// at each message to request the facility, and the completion's event
// finishes that message and drains on.
type handlerConsumer struct {
	mb       *sim.Mailbox[int]
	f        *sim.Facility
	mode     int
	logf     func(string, ...any)
	charging bool // a message is in service on the facility
	cur      int  // that message
}

func (c *handlerConsumer) HandleEvent() {
	if c.charging {
		c.charging = false
		c.logf("consumed %d", c.cur)
	}
	for {
		v, ok := c.mb.Take()
		if !ok {
			return
		}
		if c.mode == consumeCharge {
			c.cur, c.charging = v, true
			c.f.Request(c, chargeOf(v), v%2, 0)
			return
		}
		c.logf("consumed %d", v)
	}
}

// runConsumerScript drives s on a fresh engine with the consumer attach
// installs, and returns the log: every actor step, callback and consumed
// message, each with the clock and the number of
// events dispatched before it (less the consumer's spawn events), then the
// run's final event count.
func runConsumerScript(t *testing.T, s consumerScript, attach consumerAttacher) []string {
	t.Helper()
	e := sim.New()
	mb := sim.NewMailbox[int](e, "mb")
	f := sim.NewFacility(e, "cpu")
	var log []string
	var offset int64
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("t=%d ev=%d ", e.Now(), e.Stats().Events-offset)+fmt.Sprintf(format, args...))
	}
	offset = int64(attach(e, mb, f, s.mode, logf))
	for w, ops := range s.procs {
		simtest.Spawn(e, fmt.Sprintf("a%d", w), func(p *simtest.Proc) {
			for step, op := range ops {
				v := 1000*w + 2*step
				switch op.kind {
				case cPut:
					mb.Put(v)
				case cPutPair:
					mb.Put(v)
					mb.Put(v + 1)
				case cHold:
					p.Hold(sim.Duration(op.arg) * 10 * sim.Microsecond)
				case cCallbackPut:
					e.Schedule(sim.Duration(op.arg)*10*sim.Microsecond, func() {
						mb.Put(v)
						logf("callback put %d", v)
					})
				case cReady:
					e.Schedule(0, func() { logf("ready %d", v) })
				case cUse:
					simtest.Use(p, f, chargeOf(op.arg), op.arg%2)
				case cDrop:
					mb.SetDrop(op.arg%2 == 0)
				}
				logf("a%d.%d kind=%d arg=%d", w, step, op.kind, op.arg)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	log = append(log, fmt.Sprintf("end t=%d events=%d", e.Now(), e.Stats().Events-offset))
	e.Close()
	return log
}

// checkConsumerScript runs s with the consumer under test and with the
// reference and fails at the first line where their logs differ.
func checkConsumerScript(t *testing.T, s consumerScript) {
	t.Helper()
	got := runConsumerScript(t, s, attachConsumer)
	want := runConsumerScript(t, s, attachProcessConsumer)
	for i := range max(len(got), len(want)) {
		if g, w := logLine(got, i), logLine(want, i); g != w {
			t.Fatalf("mode %d, %d actors: line %d differs\n got: %s\nwant: %s", s.mode, len(s.procs), i, g, w)
		}
	}
}

func logLine(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "<end>"
}

// TestMailboxConsumerMatchesProcess drives the consumer under test and the
// reference through the same random scripts: puts from processes and from
// callbacks at the same instant, backlogs, other events on the ready ring,
// facility requests at both priorities and drop mode, and, for the timed
// consumer, timeouts that expire alone, that lose to a put in the same
// instant, and that fire stale after a put won.
func TestMailboxConsumerMatchesProcess(t *testing.T) {
	src := rng.NewFactory(13).Stream("scripts")
	for n := 0; n < 2250; n++ {
		data := make([]byte, 2+src.Intn(60))
		for i := range data {
			data[i] = byte(src.Intn(256))
		}
		data[0] = byte(n % 3) // every mode, evenly
		checkConsumerScript(t, decodeConsumerScript(data))
	}
}

func FuzzMailboxConsumer(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 4, 4, 15})
	f.Add([]byte{1, 2, 4, 4, 0, 0x11, 0x3b, 0x2c, 4, 0})
	f.Add([]byte{0, 3, 8, 0x18, 0x28, 10, 10, 0, 0x0d, 0, 0x1d, 0})
	f.Add([]byte{1, 1, 4, 6, 0x16, 0x0f, 0})
	f.Add(bytes.Repeat([]byte{1, 3, 0x4b, 4, 0x28, 0x36, 0x0d, 0x1d, 0x1a, 0x05}, 3))
	f.Add([]byte{2, 2, 0x17, 0x09, 0x27, 0x00, 0x17, 0x19, 0x00, 0x0b})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 200 {
			data = data[:200]
		}
		checkConsumerScript(t, decodeConsumerScript(data))
	})
}
