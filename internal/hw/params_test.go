package hw

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// TestDefaultConfigMatchesPaperTable2 pins every parameter the paper's
// Table 2 publishes. If a default drifts, this test names the parameter.
func TestDefaultConfigMatchesPaperTable2(t *testing.T) {
	p := DefaultParams()
	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{"AvgSettleMS", p.AvgSettleMS, 2.0},
		{"MaxLatencyMS", p.MaxLatencyMS, 16.68},
		{"TransferMBps", p.TransferMBps, 1.8},
		{"SeekFactorMS", p.SeekFactorMS, 0.78},
		{"PageSize", float64(p.PageSize), 8192},
		{"XferPageInstr", float64(p.XferPageInstr), 4000},
		{"MaxPacket", float64(p.MaxPacket), 8192},
		{"Send100BMS", p.Send100BMS, 0.6},
		{"Send8KBMS", p.Send8KBMS, 5.6},
		{"MIPS", p.MIPS, 3.0},
		{"ReadPageInstr", float64(p.ReadPageInstr), 14600},
		{"WritePageInstr", float64(p.WritePageInstr), 28000},
		{"TupleSize", float64(p.TupleSize), 208},
		{"TuplesPerPacket", float64(p.TuplesPerPacket), 36},
		{"TuplesPerPage", float64(p.TuplesPerPage), 36},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("Table 2 parameter %s = %g, want %g", c.name, c.got, c.want)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestInstrTime(t *testing.T) {
	p := DefaultParams()
	// 3,000,000 instructions at 3 MIPS = 1 second.
	if got := p.InstrTime(3_000_000); got != sim.Second {
		t.Fatalf("3M instr = %v, want 1s", got)
	}
	// Read page: 14600 instr = 4866.67us.
	got := p.InstrTime(14600).Milliseconds()
	if math.Abs(got-4.8667) > 0.001 {
		t.Fatalf("ReadPage CPU = %gms", got)
	}
}

func TestMsgCostAnchors(t *testing.T) {
	p := DefaultParams()
	if got := p.MsgCost(100).Milliseconds(); math.Abs(got-0.6) > 1e-9 {
		t.Fatalf("100B message = %gms, want 0.6", got)
	}
	if got := p.MsgCost(8192).Milliseconds(); math.Abs(got-5.6) > 1e-9 {
		t.Fatalf("8192B message = %gms, want 5.6", got)
	}
	mid := p.MsgCost(4146).Milliseconds() // midpoint
	if math.Abs(mid-3.1) > 0.01 {
		t.Fatalf("midpoint message = %gms, want ~3.1", mid)
	}
}

func TestMsgCostMonotoneAndFloored(t *testing.T) {
	p := DefaultParams()
	prev := sim.Duration(0)
	for b := 1; b <= p.MaxPacket; b += 97 {
		c := p.MsgCost(b)
		if c < prev {
			t.Fatalf("MsgCost not monotone at %dB", b)
		}
		if c <= 0 {
			t.Fatalf("MsgCost(%d) = %v", b, c)
		}
		prev = c
	}
}

func TestPageTransferTime(t *testing.T) {
	p := DefaultParams()
	// 8192 bytes at 1.8 MB/s = 4.34 ms.
	got := p.PageTransferTime().Milliseconds()
	if math.Abs(got-4.34) > 0.01 {
		t.Fatalf("page transfer = %gms, want ~4.34", got)
	}
}

func TestSeekTime(t *testing.T) {
	p := DefaultParams()
	if p.SeekTime(0) != 0 {
		t.Fatal("zero-distance seek should be free")
	}
	// settle 2ms + 0.78*sqrt(100) = 9.8ms
	got := p.SeekTime(100).Milliseconds()
	if math.Abs(got-9.8) > 0.01 {
		t.Fatalf("seek(100) = %gms", got)
	}
	if p.SeekTime(1) >= p.SeekTime(400) {
		t.Fatal("seek not increasing with distance")
	}
}

func TestGeometryHelpers(t *testing.T) {
	p := DefaultParams()
	if p.PagesPerDisk() != p.Cylinders*p.PagesPerCylinder {
		t.Fatal("PagesPerDisk inconsistent")
	}
	if p.Cylinder(0) != 0 || p.Cylinder(p.PagesPerCylinder) != 1 {
		t.Fatal("Cylinder mapping wrong")
	}
}

func TestTupleHelpers(t *testing.T) {
	p := DefaultParams()
	if p.TupleBytes(3) != 624 {
		t.Fatalf("TupleBytes(3) = %d", p.TupleBytes(3))
	}
	cases := []struct{ n, pages, packets int }{
		{0, 0, 0}, {1, 1, 1}, {36, 1, 1}, {37, 2, 2}, {300, 9, 9}, {-5, 0, 0},
	}
	for _, c := range cases {
		if got := p.PagesForTuples(c.n); got != c.pages {
			t.Errorf("PagesForTuples(%d) = %d, want %d", c.n, got, c.pages)
		}
		if got := p.PacketsForTuples(c.n); got != c.packets {
			t.Errorf("PacketsForTuples(%d) = %d, want %d", c.n, got, c.packets)
		}
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.MIPS = 0 },
		func(p *Params) { p.PageSize = -1 },
		func(p *Params) { p.TransferMBps = 0 },
		func(p *Params) { p.WireMBps = 0 },
		func(p *Params) { p.Cylinders = 0 },
		func(p *Params) { p.MaxPacket = 10 },
		func(p *Params) { p.TuplesPerPage = 0 },
		func(p *Params) { p.Send8KBMS = 0.1 },
	}
	for i, mut := range bad {
		p := DefaultParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted a bad config", i)
		}
	}
}
