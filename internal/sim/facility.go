package sim

import (
	"fmt"

	"repro/internal/obs"
)

// Facility is a single-server queueing station with FCFS service within a
// priority class and higher priority classes served first (non-preemptive:
// an in-service request always completes). It models the paper's CPU module
// ("FCFS non-preemptive scheduling on all requests, except for byte
// transfers to/from the disk's FIFO buffer", which we map to a high-priority
// class) and the FCFS network interfaces.
//
// Every request names the Handler to schedule when its service completes
// and the query it is for. The wait queue is
// an intrusive singly-linked list of pooled request nodes, and the
// facility is the Handler of its own service completion, so steady-state
// operation allocates nothing: nodes recycle through a per-facility free
// list and the single in-service request lives in a struct field instead
// of a per-completion closure.
type Facility struct {
	eng  *Engine
	name string

	// Observability identity: which node and resource class the facility
	// belongs to (SetMeta). Defaults place it on no node as "facility".
	node     int
	category string

	qhead    *facRequest // waiting requests (excludes in-service)
	qtail    *facRequest
	qlenN    int
	cur      *facRequest // request in service; nil while idle
	curSpan  Span
	freeReqs *facRequest // recycled nodes

	clock BusyClock
}

type facRequest struct {
	h       Handler // scheduled when the service completes
	service Duration
	prio    int
	qid     int64
	next    *facRequest
}

// NewFacility creates a facility attached to the engine.
func NewFacility(e *Engine, name string) *Facility {
	f := &Facility{eng: e, name: name, node: obs.NoNode, category: "facility"}
	f.clock.Reset(e.now)
	return f
}

// Name reports the facility name.
func (f *Facility) Name() string { return f.name }

// SetMeta records which node and resource category ("cpu", "net", ...) the
// facility represents; trace events it emits land on that track.
func (f *Facility) SetMeta(node int, category string) {
	f.node = node
	f.category = category
}

// Request asks for service at the given priority on behalf of h, for the
// query qid (0 for none): it queues, or is served at once on an idle
// facility, and when the service completes, h runs as an event at that
// instant. Its span is named by h
// (see Namer) and carries qid.
func (f *Facility) Request(h Handler, service Duration, prio int, qid int64) {
	if service < 0 {
		panic(fmt.Sprintf("sim: facility %s: negative service time", f.name))
	}
	req := f.newRequest()
	req.h, req.service, req.prio, req.qid = h, service, prio, qid
	if f.cur != nil {
		f.enqueue(req)
		return
	}
	f.serve(req)
}

// newRequest takes a node from the free list, or grows the pool.
func (f *Facility) newRequest() *facRequest {
	if req := f.freeReqs; req != nil {
		f.freeReqs = req.next
		req.next = nil
		return req
	}
	return new(facRequest)
}

// recycle clears a node's references and returns it to the free list.
func (f *Facility) recycle(req *facRequest) {
	*req = facRequest{next: f.freeReqs}
	f.freeReqs = req
}

// enqueue inserts by priority, descending, behind every queued request of
// the same priority (FCFS within a class). The common case — a request
// at or below the tail's priority — appends in O(1).
func (f *Facility) enqueue(req *facRequest) {
	f.qlenN++
	if f.qtail == nil {
		f.qhead, f.qtail = req, req
		return
	}
	if f.qtail.prio >= req.prio {
		f.qtail.next = req
		f.qtail = req
		return
	}
	if f.qhead.prio < req.prio {
		req.next = f.qhead
		f.qhead = req
		return
	}
	cur := f.qhead
	for cur.next != nil && cur.next.prio >= req.prio {
		cur = cur.next
	}
	req.next = cur.next
	cur.next = req
	if req.next == nil {
		f.qtail = req
	}
}

// dequeue removes and returns the head of the wait queue, or nil.
func (f *Facility) dequeue() *facRequest {
	req := f.qhead
	if req == nil {
		return nil
	}
	f.qhead = req.next
	if f.qhead == nil {
		f.qtail = nil
	}
	req.next = nil
	f.qlenN--
	return req
}

// serve starts service for req and schedules its completion (HandleEvent).
func (f *Facility) serve(req *facRequest) {
	f.cur = req
	f.clock.Start(f.eng.now)
	f.curSpan = f.eng.StartSpan()
	f.eng.ScheduleHandler(req.service, f)
}

// HandleEvent completes the in-service request: it schedules the
// request's handler at this instant, recycles
// the request node, and starts the next queued request. It implements the
// engine's Handler interface and is not meant to be called directly.
func (f *Facility) HandleEvent() {
	req := f.cur
	if f.curSpan.Active() {
		f.curSpan.End(f.node, f.category, handlerName(req.h), req.qid, "")
	}
	f.eng.ScheduleHandler(0, req.h)
	f.recycle(req)
	if next := f.dequeue(); next != nil {
		f.serve(next)
	} else {
		f.cur = nil
		f.clock.Stop(f.eng.now)
	}
}

// QueueLen reports the number of waiting (not in service) requests.
func (f *Facility) QueueLen() int { return f.qlenN }

// Utilization reports the fraction of time the facility was busy since the
// last stats reset.
func (f *Facility) Utilization() float64 { return f.clock.Utilization(f.eng.now) }

// BusySeconds reports cumulative busy time in simulated seconds since the
// last stats reset (see BusyClock.BusySeconds).
func (f *Facility) BusySeconds() float64 { return f.clock.BusySeconds(f.eng.now) }

// ResetStats restarts busy-time accounting at the current time; used to
// discard warm-up transients.
func (f *Facility) ResetStats() { f.clock.Reset(f.eng.now) }
