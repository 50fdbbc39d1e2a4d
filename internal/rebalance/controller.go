package rebalance

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/sim"
)

// Executor is the machine-layer surface a transition drives. Prepare
// stages the complete next-generation layout (fragments, indexes, chain
// backups) without disturbing the serving generation and returns the
// page-move plan whose I/O the copier will charge; Cutover atomically
// installs the staged generation on every node and the host. Both run
// inside one of the controller's events, so implementations may rely on
// run-to-completion semantics.
type Executor interface {
	Prepare(t Transition) (Plan, error)
	Cutover(t Transition)
}

// TaskReport records one executed (or refused) transition.
type TaskReport struct {
	Kind    string `json:"kind"`
	Node    int    `json:"node"`
	Gen     int    `json:"gen"`
	Members []int  `json:"members"`
	// PlannedAt is the scheduled offset (for repairs, the promotion time);
	// StartedAt is when the controller began staging, CopiedAt when the
	// background copy drained, CutoverAt when the new generation took over.
	PlannedAt  sim.Duration `json:"planned_at"`
	StartedAt  sim.Duration `json:"started_at"`
	CopiedAt   sim.Duration `json:"copied_at"`
	CutoverAt  sim.Duration `json:"cutover_at"`
	Tuples     int          `json:"tuples"`
	ReadPages  int          `json:"read_pages"`
	WritePages int          `json:"write_pages"`
	Bytes      int64        `json:"bytes"`
	Err        string       `json:"err,omitempty"`
}

// Rebalance is the time from plan to cutover (zero for refused tasks).
func (t TaskReport) Rebalance() sim.Duration {
	if t.Err != "" && t.CutoverAt == 0 {
		return 0
	}
	return t.CutoverAt - t.PlannedAt
}

// Report aggregates a run's membership history.
type Report struct {
	Tasks       []TaskReport `json:"tasks,omitempty"`
	Tuples      int          `json:"tuples"`
	ReadPages   int          `json:"read_pages"`
	WritePages  int          `json:"write_pages"`
	BytesMoved  int64        `json:"bytes_moved"`
	PagesCopied int64        `json:"pages_copied"`
	Errors      int64        `json:"errors"`
}

// MaxRebalance reports the slowest transition's plan-to-cutover time.
func (r Report) MaxRebalance() sim.Duration {
	var max sim.Duration
	for _, t := range r.Tasks {
		if d := t.Rebalance(); d > max {
			max = d
		}
	}
	return max
}

// Summary renders the one-line digest CI smoke tests grep for.
func (r Report) Summary() string {
	counts := map[string]int{}
	for _, t := range r.Tasks {
		counts[t.Kind]++
	}
	return fmt.Sprintf(
		"rebalance summary: tasks=%d join=%d leave=%d decommission=%d repair=%d tuples=%d pages=%d bytes=%d max_ttr=%v errors=%d",
		len(r.Tasks), counts["join"], counts["leave"], counts["decommission"], counts["repair"],
		r.Tuples, r.ReadPages+r.WritePages, r.BytesMoved, r.MaxRebalance(), r.Errors)
}

// Controller walks a validated Schedule on the sim clock, executing each
// membership change as stage → throttled copy → cutover, and accepts
// asynchronous repair requests (promoted permanent node crashes) between
// and after planned events. It is a single handler that runs one step per
// event, so at most one transition is in flight at a time and the whole
// run is deterministic.
type Controller struct {
	hw.Background // the copy's page I/O serves no query
	eng           *sim.Engine
	sched         Schedule
	exec          Executor
	copier        *Copier
	members       []int
	standbys      []int
	gen           int
	repairs       *sim.Mailbox[repairReq]
	rep           Report
	refusals      int64

	// Where the controller resumes: the next planned event ev, the next
	// standby to join, whether a wait for that event is in progress, and
	// the transition whose copy is in progress, if one is.
	ev          int
	nextStandby int
	waiting     bool
	copying     bool
	task        TaskReport
	t           Transition
}

type repairReq struct {
	node int
	at   sim.Duration
}

// NewController builds a controller over an initial membership of
// [0, initial) with the given standby physical ids (assigned to Join
// events in schedule order). The schedule must already be Validated.
func NewController(eng *sim.Engine, sched Schedule, initial int, standbys []int, ex Executor, cp *Copier) *Controller {
	members := make([]int, initial)
	for i := range members {
		members[i] = i
	}
	return &Controller{
		eng:      eng,
		sched:    sched,
		exec:     ex,
		copier:   cp,
		members:  members,
		standbys: standbys,
		repairs:  sim.NewMailbox[repairReq](eng, "rebalance.repairs"),
	}
}

func (c *Controller) now() sim.Duration { return sim.Duration(c.eng.Now()) }

// Members returns the current membership in slot order.
func (c *Controller) Members() []int { return c.members }

// Gen returns the current placement generation.
func (c *Controller) Gen() int { return c.gen }

// Report returns the membership history accumulated so far.
func (c *Controller) Report() Report { return c.rep }

// RequestRepair promotes a permanent node failure into an unplanned
// removal. Safe to call from event callbacks (the fault injector's apply
// hook); requests for nodes that are no longer members are ignored when
// drained.
func (c *Controller) RequestRepair(node int) {
	c.repairs.Put(repairReq{node: node, at: c.now()})
}

// Start starts the controller: its first event is due now.
func (c *Controller) Start() {
	c.eng.ScheduleHandler(0, c)
}

// HandleEvent runs the controller from the event that ended its last wait
// to its next wait. Before each planned event it serves the repair
// requests that arrive first, waiting for them until the event is due;
// after the last, it waits for repairs only. A transition runs its copy
// in steps, in these events too. It implements sim.Handler and is not
// meant to be called directly.
func (c *Controller) HandleEvent() {
	if c.copying {
		if !c.copier.Step() {
			return
		}
		c.copying = false
		c.cutover()
	}
	for events := c.sched.Events; ; {
		if c.ev == len(events) {
			req, ok := c.repairs.Wait(c)
			if !ok || c.repair(req) {
				return
			}
			continue
		}
		// A wait that began goes on to its end, its timer's instant
		// included, where nothing is left to wait.
		if wait := events[c.ev].At - c.now(); wait > 0 || c.waiting {
			req, ok, done := c.repairs.TakeTimeout(c, wait)
			if c.waiting = !done; c.waiting {
				return
			}
			if ok {
				if c.repair(req) {
					return
				}
				continue
			}
		}
		if c.planned() {
			return
		}
	}
}

// planned runs the next planned event's transition and reports whether
// its copy waits.
func (c *Controller) planned() bool {
	ev := c.sched.Events[c.ev]
	c.ev++
	node := ev.Node
	if ev.Kind == Join {
		node = c.standbys[c.nextStandby]
		c.nextStandby++
	}
	return c.transition(ev.At, ev.Kind, node)
}

// repair runs a repair request's transition, unless its node is no
// longer a member, and reports whether its copy waits.
func (c *Controller) repair(req repairReq) bool {
	if !c.isMember(req.node) {
		return false // already repaired or was never serving
	}
	return c.transition(req.at, Repair, req.node)
}

func (c *Controller) isMember(node int) bool {
	for _, m := range c.members {
		if m == node {
			return true
		}
	}
	return false
}

// transition executes one membership change end to end and reports
// whether its copy waits; the step that completes the copy then cuts
// over. A Prepare failure (e.g. a strategy that cannot build at the new
// node count, or refusing to shrink to zero members) leaves membership and
// generation untouched and records the refusal on the report.
func (c *Controller) transition(plannedAt sim.Duration, kind EventKind, node int) bool {
	task := TaskReport{
		Kind:      kind.String(),
		Node:      node,
		PlannedAt: plannedAt,
		StartedAt: c.now(),
	}
	var members []int
	switch kind {
	case Join:
		members = append(append([]int(nil), c.members...), node)
	default:
		if len(c.members) == 1 {
			task.Err = "cannot remove the last member"
			task.Gen = c.gen
			task.Members = sortedCopy(c.members)
			c.record(task)
			return false
		}
		members = removeMember(c.members, node)
	}
	t := Transition{Gen: c.gen + 1, Kind: kind, Node: node, Members: members}
	plan, err := c.exec.Prepare(t)
	if err != nil {
		task.Err = err.Error()
		task.Gen = c.gen
		task.Members = sortedCopy(c.members)
		c.record(task)
		return false
	}
	task.Tuples = plan.Tuples
	task.ReadPages = plan.ReadPages
	task.WritePages = plan.WritePages
	task.Bytes = int64(plan.WritePages) * int64(c.copier.PageBytes)
	c.task, c.t = task, t
	if c.copying = !c.copier.Start(c.eng, c, plan); !c.copying {
		c.cutover()
	}
	return c.copying
}

// cutover ends the transition whose copy is done: it installs the new
// generation and records the task.
func (c *Controller) cutover() {
	task, t := c.task, c.t
	if cerr := c.copier.Err(); cerr != nil && task.Err == "" {
		task.Err = cerr.Error()
	}
	task.CopiedAt = c.now()
	c.exec.Cutover(t)
	task.CutoverAt = c.now()
	c.gen = t.Gen
	c.members = t.Members
	task.Gen = t.Gen
	task.Members = sortedCopy(t.Members)
	c.record(task)
	c.task, c.t = TaskReport{}, Transition{}
}

func (c *Controller) record(task TaskReport) {
	c.rep.Tasks = append(c.rep.Tasks, task)
	c.rep.Tuples += task.Tuples
	c.rep.ReadPages += task.ReadPages
	c.rep.WritePages += task.WritePages
	c.rep.BytesMoved += task.Bytes
	if task.Err != "" && task.CutoverAt == 0 {
		c.refusals++
	}
	c.rep.PagesCopied = c.copier.PagesCopied
	c.rep.Errors = c.copier.Errors + c.refusals
}
