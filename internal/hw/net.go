package hw

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Message is one transmission on the interconnect. Payload semantics belong
// to the caller (the execution layer defines control and data message
// types); hw charges costs from Bytes alone.
type Message struct {
	From, To int
	Bytes    int
	Payload  any
}

// NIC is one node's network interface: a FCFS facility serializing outgoing
// transmissions plus a receive path that charges the node CPU for each
// arriving message before delivering it to the node's inbox.
//
// The receive path is a handler consuming the rx mailbox: idle, an
// arrival schedules it at the current instant; it then requests the CPU
// for the oldest message and, when that service completes, delivers the
// message and goes on with the next, or delivers at once when the message
// costs no CPU, until rx is empty.
type NIC struct {
	node  int
	net   *Network
	cpu   *CPU // nil for an uncharged endpoint
	name  string
	out   *sim.Facility
	rx    *sim.Mailbox[Message] // wire -> receive path
	inbox *sim.Mailbox[Message] // receive path -> application

	inCPU bool    // cur is in service on the CPU
	cur   Message // the message the receive path is charging

	sent int64 // packets transmitted since the last stats reset
}

// HandleEvent runs the receive path: it delivers the message whose CPU
// service just completed, then works through rx until a message needs the
// CPU or none is left. It implements sim.Handler and is not meant to be
// called directly.
func (c *NIC) HandleEvent() {
	if c.inCPU {
		m := c.cur
		c.inCPU, c.cur = false, Message{}
		c.inbox.Put(m)
	}
	for m, ok := c.rx.Take(); ok; m, ok = c.rx.Take() {
		if cost := c.recvCost(m.Bytes); cost > 0 {
			c.inCPU, c.cur = true, m
			c.cpu.fac.Request(c, cost, PrioTransfer, 0)
			return
		}
		c.inbox.Put(m)
	}
}

// Name names the receive path on its CPU spans.
func (c *NIC) Name() string { return c.name }

// recvCost is the receive-side protocol processing of a message: a
// fraction of the sender cost, charged at interrupt (transfer) priority,
// or nothing at an uncharged endpoint.
func (c *NIC) recvCost(bytes int) sim.Duration {
	if c.cpu == nil {
		return 0
	}
	return sim.Duration(float64(c.net.params.MsgCost(bytes)) * c.net.params.RecvCostFraction)
}

// Network is the fully connected interconnect of Figure 7. Node IDs are
// 0..n-1 in the order the CPUs were supplied; by convention the execution
// layer uses the last ID for the scheduler/host node.
type Network struct {
	eng    *sim.Engine
	params Params
	nics   []*NIC

	drop []int // per destination, the next logical messages to lose; nil until the first DropNext
}

// DropNext makes the next k logical messages addressed to node vanish at
// delivery: the wire and CPU costs are paid, the receiver never sees the
// payload. Tests inject lost messages with it.
func (n *Network) DropNext(node, k int) {
	if node < 0 || node >= len(n.nics) {
		return
	}
	if n.drop == nil {
		n.drop = make([]int, len(n.nics))
	}
	n.drop[node] += k
}

// NewNetwork wires one NIC per CPU. Each NIC's receive path charges
// cpus[i] at transfer priority for arriving messages.
//
// A nil entry in cpus marks an uncharged endpoint: the paper's Figure 7
// gives CPUs to operator nodes only, while the Query Manager, Scheduler and
// System Catalog are stand-alone coordination modules. Messages sent from a
// nil-CPU endpoint delay the sender for the protocol cost but
// contend for no processor, and arriving messages are delivered without a
// receive-interrupt charge.
func NewNetwork(e *sim.Engine, params Params, cpus []*CPU) *Network {
	n := &Network{eng: e, params: params, nics: make([]*NIC, len(cpus))}
	for i, cpu := range cpus {
		nic := &NIC{
			node:  i,
			net:   n,
			cpu:   cpu,
			name:  fmt.Sprintf("nic%d.recv", i),
			out:   sim.NewFacility(e, fmt.Sprintf("nic%d.out", i)),
			rx:    sim.NewMailbox[Message](e, fmt.Sprintf("nic%d.rx", i)),
			inbox: sim.NewMailbox[Message](e, fmt.Sprintf("nic%d.inbox", i)),
		}
		nic.out.SetMeta(i, "net")
		nic.rx.Consume(nic)
		n.nics[i] = nic
	}
	return n
}

// Send transmits one message over the network, in steps, from a record
// its caller owns. Messages larger than MaxPacket are split into maximal
// packets, each paying full per-packet costs (Table 2 caps packets at
// 8 KB): the sender-side protocol cost on the node CPU (or, from an
// uncharged coordination endpoint, as a pure delay), then its
// transmission through the outgoing NIC. Start begins the first packet
// for a Waiter, each wait ends by scheduling the Waiter, which calls Step
// in that event, and both report whether the message is sent.
type Send struct {
	n         *Network
	w         Waiter
	cpu       *CPU
	msg       Message
	remaining int  // bytes not yet in a packet
	chunk     int  // the current packet's bytes
	onWire    bool // the current packet is being transmitted
}

// Start begins sending msg for w, charging cpu (nil for an uncharged
// endpoint).
func (s *Send) Start(n *Network, w Waiter, cpu *CPU, msg Message) bool {
	if msg.To < 0 || msg.To >= len(n.nics) || msg.From < 0 || msg.From >= len(n.nics) {
		panic(fmt.Sprintf("hw: message endpoints out of range: %d -> %d", msg.From, msg.To))
	}
	if msg.Bytes <= 0 {
		panic(fmt.Sprintf("hw: message must have positive size, got %d", msg.Bytes))
	}
	s.n, s.w, s.cpu, s.msg, s.remaining = n, w, cpu, msg, msg.Bytes
	return s.packet()
}

// Step continues the send in the event that ended its wait: the packet's
// protocol cost is paid, so it goes on the wire, or it has been
// transmitted, so it is delivered and the next packet starts.
func (s *Send) Step() bool {
	if !s.onWire {
		return s.transmit()
	}
	s.deliver()
	if s.remaining == 0 {
		return true
	}
	return s.packet()
}

// packet starts the next packet's sender-side protocol processing.
func (s *Send) packet() bool {
	s.chunk = min(s.remaining, s.n.params.MaxPacket)
	s.remaining -= s.chunk
	s.onWire = false
	cost := s.n.params.MsgCost(s.chunk)
	switch {
	case s.cpu == nil:
		s.n.eng.ScheduleHandler(cost, s.w)
	case !s.cpu.chargeTime(s.w, cost, PrioNormal):
		return s.transmit()
	}
	return false
}

// transmit puts the packet on the outgoing NIC, serialized behind the
// node's earlier packets.
func (s *Send) transmit() bool {
	s.onWire = true
	s.n.nics[s.msg.From].out.Request(s.w, s.n.params.WireTime(s.chunk), 0, s.w.QID())
	return false
}

// deliver hands the transmitted packet to the receiver. The final packet
// carries the logical message, which DropNext loses whole after the wire
// cost is paid.
func (s *Send) deliver() {
	n, msg := s.n, s.msg
	n.nics[msg.From].sent++
	if n.eng.Tracing() {
		n.eng.EmitNow(obs.TraceEvent{
			Node: msg.From, Kind: obs.KindInstant, Category: "net",
			Name:    fmt.Sprintf("packet %dB -> %d", s.chunk, msg.To),
			QueryID: s.w.QID(),
		})
	}
	if s.remaining > 0 {
		n.nics[msg.To].rx.Put(Message{From: msg.From, To: msg.To, Bytes: s.chunk})
		return
	}
	if n.drop != nil && n.drop[msg.To] > 0 {
		n.drop[msg.To]--
		return
	}
	n.nics[msg.To].rx.Put(Message{From: msg.From, To: msg.To, Bytes: s.chunk, Payload: msg.Payload})
}

// Inbox returns the application-level inbox for a node. Messages appear here
// after receive-side CPU processing. Fragments of an oversize message arrive
// as separate entries; only the final fragment carries the payload.
func (n *Network) Inbox(node int) *sim.Mailbox[Message] { return n.nics[node].inbox }

// Sent reports packets transmitted by a node.
func (n *Network) Sent(node int) int64 { return n.nics[node].sent }

// ResetStats clears per-node counters (post warm-up).
func (n *Network) ResetStats() {
	for _, nic := range n.nics {
		nic.sent = 0
		nic.out.ResetStats()
	}
}
