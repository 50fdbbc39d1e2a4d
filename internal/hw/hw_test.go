package hw

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// execute charges instr on cpu for the process p at normal priority,
// parking p through queueing and service.
func execute(p *simtest.Proc, cpu *CPU, instr int) {
	if cpu.Charge(p, instr, PrioNormal) {
		p.Park()
	}
}

// send transmits msg for the process p, parking p through each packet's
// protocol cost and wire time.
func send(p *simtest.Proc, n *Network, cpu *CPU, msg Message) {
	var s Send
	for done := s.Start(n, p, cpu, msg); !done; done = s.Step() {
		p.Park()
	}
}

func testRig(t *testing.T) (*sim.Engine, Params, *CPU, *Disk) {
	t.Helper()
	e := sim.New()
	p := DefaultParams()
	cpu := NewCPU(e, "cpu0", p)
	disk := NewDisk(e, "disk0", p, cpu, rng.NewFactory(1).Stream("lat"))
	return e, p, cpu, disk
}

func TestCPUExecuteCharge(t *testing.T) {
	e, p, cpu, _ := testRig(t)
	var done sim.Time
	simtest.Spawn(e, "p", func(pr *simtest.Proc) {
		execute(pr, cpu, 3000) // 1ms at 3 MIPS
		done = pr.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != sim.Time(p.InstrTime(3000)) {
		t.Fatalf("done at %v", done)
	}
	if got, want := cpu.BusySeconds(), p.InstrTime(3000).Seconds(); got != want {
		t.Fatalf("busy seconds = %g, want %g", got, want)
	}
}

func TestCPUZeroInstrIsFree(t *testing.T) {
	e, _, cpu, _ := testRig(t)
	simtest.Spawn(e, "p", func(pr *simtest.Proc) {
		execute(pr, cpu, 0)
		if pr.Now() != 0 {
			t.Error("zero instructions consumed time")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCPUNegativeInstrPanics(t *testing.T) {
	e, _, cpu, _ := testRig(t)
	simtest.Spawn(e, "p", func(pr *simtest.Proc) { execute(pr, cpu, -1) })
	if err := e.Run(); err == nil {
		t.Fatal("negative instruction count should error")
	}
}

func TestCPUTransferPriorityServedFirst(t *testing.T) {
	e, _, cpu, _ := testRig(t)
	var order []string
	simtest.Spawn(e, "op1", func(pr *simtest.Proc) {
		execute(pr, cpu, 30000) // 10ms, occupies server
		order = append(order, "op1")
	})
	simtest.Spawn(e, "op2", func(pr *simtest.Proc) {
		pr.Hold(sim.Millisecond)
		execute(pr, cpu, 3000)
		order = append(order, "op2")
	})
	simtest.Spawn(e, "xfer", func(pr *simtest.Proc) {
		pr.Hold(2 * sim.Millisecond)
		executeTransfer(pr, cpu, 4000)
		order = append(order, "xfer")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"op1", "xfer", "op2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDiskRandomReadCostRange(t *testing.T) {
	e, p, _, disk := testRig(t)
	var elapsed sim.Duration
	simtest.Spawn(e, "p", func(pr *simtest.Proc) {
		start := pr.Now()
		readHeat(pr, disk, 500*p.PagesPerCylinder, nil) // 500 cylinders away
		elapsed = sim.Duration(pr.Now() - start)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// seek(500) = 2 + 0.78*sqrt(500) = 19.44ms; latency in [0,16.68];
	// transfer 4.34ms; FIFO->memory 4000 instr = 1.33ms.
	lo, hi := 19.44+0+4.34+1.33, 19.44+16.68+4.34+1.34
	got := elapsed.Milliseconds()
	if got < lo-0.01 || got > hi+0.01 {
		t.Fatalf("random read took %gms, want in [%g, %g]", got, lo, hi)
	}
	if disk.Reads() != 1 {
		t.Fatalf("reads = %d", disk.Reads())
	}
}

func TestDiskSequentialReadIsTransferOnly(t *testing.T) {
	e, p, _, disk := testRig(t)
	var deltas []float64
	simtest.Spawn(e, "p", func(pr *simtest.Proc) {
		for pg := 0; pg < 5; pg++ {
			start := pr.Now()
			readHeat(pr, disk, pg, nil)
			deltas = append(deltas, sim.Duration(pr.Now()-start).Milliseconds())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Pages 1..4 are sequential: transfer (4.34) + FIFO transfer (1.33).
	want := p.PageTransferTime().Milliseconds() + p.InstrTime(p.XferPageInstr).Milliseconds()
	for i := 1; i < 5; i++ {
		if math.Abs(deltas[i]-want) > 0.01 {
			t.Fatalf("sequential read %d took %gms, want %g", i, deltas[i], want)
		}
	}
}

func TestDiskElevatorOrdering(t *testing.T) {
	e, p, _, disk := testRig(t)
	// Saturate the disk with requests at cylinders 900, 100, 500 while the
	// head starts at 0 moving up; SCAN must serve 100, 500, 900.
	var order []int
	blocker := func(pr *simtest.Proc) { readHeat(pr, disk, 0, nil) } // occupy arm first
	simtest.Spawn(e, "blocker", blocker)
	for _, cyl := range []int{900, 100, 500} {
		cyl := cyl
		simtest.Spawn(e, "r", func(pr *simtest.Proc) {
			pr.Hold(sim.Microsecond) // enqueue while blocker in service
			readHeat(pr, disk, cyl*p.PagesPerCylinder, nil)
			order = append(order, cyl)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{100, 500, 900}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("elevator order = %v, want %v", order, want)
		}
	}
}

func TestDiskElevatorReversesSweep(t *testing.T) {
	e, p, _, disk := testRig(t)
	var order []int
	simtest.Spawn(e, "first", func(pr *simtest.Proc) { readHeat(pr, disk, 500*p.PagesPerCylinder, nil) })
	for _, cyl := range []int{400, 600} {
		cyl := cyl
		simtest.Spawn(e, "r", func(pr *simtest.Proc) {
			pr.Hold(sim.Microsecond)
			readHeat(pr, disk, cyl*p.PagesPerCylinder, nil)
			order = append(order, cyl)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Head lands at 500 sweeping up: 600 first, then reverse to 400.
	want := []int{600, 400}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("sweep order = %v, want %v", order, want)
		}
	}
}

func TestDiskWriteChargesCPUAndArm(t *testing.T) {
	e, p, cpu, disk := testRig(t)
	var done sim.Time
	simtest.Spawn(e, "p", func(pr *simtest.Proc) {
		if err := writePage(pr, disk, 100); err != nil {
			t.Error(err)
		}
		done = pr.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	xfer := p.InstrTime(p.XferPageInstr)
	if got, want := cpu.BusySeconds(), xfer.Seconds(); got != want {
		t.Fatalf("cpu busy seconds = %g, want %g (FIFO transfer)", got, want)
	}
	arm := sim.Duration(done) - xfer
	if arm < p.PageTransferTime() || disk.BusySeconds() != arm.Seconds() {
		t.Fatalf("arm busy %gs, want the %v after the FIFO transfer", disk.BusySeconds(), arm)
	}
	if disk.Reads() != 0 {
		t.Fatalf("a write counted as a read: reads = %d", disk.Reads())
	}
}

func TestDiskOutOfRangePageErrors(t *testing.T) {
	e, p, _, disk := testRig(t)
	var readErr error
	simtest.Spawn(e, "p", func(pr *simtest.Proc) { readErr = readHeat(pr, disk, p.PagesPerDisk(), nil) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if readErr == nil {
		t.Fatal("out-of-range page should error")
	}
	if disk.Reads() != 0 {
		t.Fatalf("rejected read was counted: reads = %d", disk.Reads())
	}
}

func TestDiskStatsReset(t *testing.T) {
	e, _, _, disk := testRig(t)
	simtest.Spawn(e, "p", func(pr *simtest.Proc) {
		readHeat(pr, disk, 10, nil)
		disk.ResetStats()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if disk.Reads() != 0 || disk.BusySeconds() != 0 {
		t.Fatal("ResetStats did not clear counters")
	}
}

func buildNet(t *testing.T, nodes int) (*sim.Engine, Params, []*CPU, *Network) {
	t.Helper()
	e := sim.New()
	p := DefaultParams()
	cpus := make([]*CPU, nodes)
	for i := range cpus {
		cpus[i] = NewCPU(e, "cpu", p)
	}
	return e, p, cpus, NewNetwork(e, p, cpus)
}

func TestNetworkDeliversPayload(t *testing.T) {
	e, _, cpus, net := buildNet(t, 2)
	var got any
	simtest.Spawn(e, "sender", func(pr *simtest.Proc) {
		send(pr, net, cpus[0], Message{From: 0, To: 1, Bytes: 100, Payload: "hello"})
	})
	simtest.Spawn(e, "receiver", func(pr *simtest.Proc) {
		m := simtest.Get(pr, net.Inbox(1))
		got = m.Payload
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("payload = %v", got)
	}
	if net.Sent(0) != 1 {
		t.Fatalf("sent = %d packets", net.Sent(0))
	}
}

func TestNetworkSplitsOversizeMessages(t *testing.T) {
	e, p, cpus, net := buildNet(t, 2)
	payloads := 0
	fragments := 0
	simtest.Spawn(e, "sender", func(pr *simtest.Proc) {
		send(pr, net, cpus[0], Message{From: 0, To: 1, Bytes: p.MaxPacket*2 + 100, Payload: "tail"})
	})
	simtest.Spawn(e, "receiver", func(pr *simtest.Proc) {
		for i := 0; i < 3; i++ {
			m := simtest.Get(pr, net.Inbox(1))
			fragments++
			if m.Payload != nil {
				payloads++
				if m.Payload != "tail" {
					t.Errorf("payload = %v", m.Payload)
				}
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fragments != 3 || payloads != 1 {
		t.Fatalf("fragments=%d payloads=%d", fragments, payloads)
	}
	if net.Sent(0) != 3 {
		t.Fatalf("sent = %d packets", net.Sent(0))
	}
}

func TestNetworkSenderPaysCPU(t *testing.T) {
	e, p, cpus, net := buildNet(t, 2)
	var elapsed sim.Duration
	simtest.Spawn(e, "sender", func(pr *simtest.Proc) {
		start := pr.Now()
		send(pr, net, cpus[0], Message{From: 0, To: 1, Bytes: 100, Payload: 1})
		elapsed = sim.Duration(pr.Now() - start)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Sender pays MsgCost(100)=0.6ms + wire time.
	want := p.MsgCost(100) + p.WireTime(100)
	if elapsed != want {
		t.Fatalf("sender blocked %v, want %v", elapsed, want)
	}
}

func TestNetworkReceiverChargedAtTransferPriority(t *testing.T) {
	e, p, cpus, net := buildNet(t, 2)
	simtest.Spawn(e, "sender", func(pr *simtest.Proc) {
		send(pr, net, cpus[0], Message{From: 0, To: 1, Bytes: 100, Payload: 1})
	})
	simtest.Spawn(e, "receiver", func(pr *simtest.Proc) {
		simtest.Get(pr, net.Inbox(1))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Receiver CPU charged RecvCostFraction * 0.6ms.
	want := sim.Duration(float64(p.MsgCost(100)) * p.RecvCostFraction).Seconds()
	if got := cpus[1].BusySeconds(); got != want {
		t.Fatalf("receiver busy seconds = %g, want %g", got, want)
	}
}

func TestNetworkBadEndpointsPanic(t *testing.T) {
	e, _, cpus, net := buildNet(t, 2)
	simtest.Spawn(e, "sender", func(pr *simtest.Proc) {
		send(pr, net, cpus[0], Message{From: 0, To: 5, Bytes: 100})
	})
	if err := e.Run(); err == nil {
		t.Fatal("bad destination should error")
	}
}

func TestNetworkZeroBytesPanics(t *testing.T) {
	e, _, cpus, net := buildNet(t, 2)
	simtest.Spawn(e, "sender", func(pr *simtest.Proc) {
		send(pr, net, cpus[0], Message{From: 0, To: 1, Bytes: 0})
	})
	if err := e.Run(); err == nil {
		t.Fatal("zero-byte message should error")
	}
}
