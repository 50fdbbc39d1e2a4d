// Package hw models the hardware of one Gamma node — CPU, disk, and network
// interface — plus the fully connected interconnect, exactly as laid out in
// Figure 7 and Table 2 of the paper. Components are simulation handlers and
// facilities on an internal/sim engine.
package hw

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Params holds the hardware parameters. The fields and defaults mirror the
// paper's Table 2; fields marked "derived" are reconstructions documented in
// DESIGN.md §2 because the paper does not publish them.
type Params struct {
	// Disk parameters (Table 2).
	AvgSettleMS   float64 // average settle time, ms
	MaxLatencyMS  float64 // rotational latency ~ Uniform(0, MaxLatencyMS), ms
	TransferMBps  float64 // sustained transfer rate, MB/s (MB = 2^20 bytes)
	SeekFactorMS  float64 // seek time = SeekFactorMS * sqrt(cylinder distance), ms
	PageSize      int     // disk page size, bytes
	XferPageInstr int     // CPU instructions to move a page SCSI FIFO <-> memory

	// Disk geometry (derived; see DESIGN.md §2.6).
	Cylinders        int // cylinders per disk
	PagesPerCylinder int // pages per cylinder

	// Network parameters (Table 2).
	MaxPacket  int     // maximum packet size, bytes
	Send100BMS float64 // CPU cost to send a 100-byte message, ms
	Send8KBMS  float64 // CPU cost to send an 8192-byte message, ms

	// Network parameters (derived).
	RecvCostFraction float64 // receiver CPU charge as a fraction of sender cost
	WireMBps         float64 // link transmission rate, MB/s (NIC occupancy)

	// CPU parameters (Table 2).
	MIPS           float64 // instructions per second / 1e6
	ReadPageInstr  int     // CPU instructions to process a read 8K page
	WritePageInstr int     // CPU instructions to process a written 8K page

	// Miscellaneous (Table 2).
	TupleSize       int // bytes per tuple
	TuplesPerPacket int // tuples per network packet
	TuplesPerPage   int // tuples per disk page
}

// DefaultParams returns the paper's Table 2 configuration for the simulated
// Gamma machine, with derived parameters per DESIGN.md. The processor count
// is not a hardware parameter: a machine has as many nodes as its placement
// has processors (Table 2's 32 is experiments.PaperScale's).
func DefaultParams() Params {
	return Params{
		AvgSettleMS:      2.0,
		MaxLatencyMS:     16.68,
		TransferMBps:     1.8,
		SeekFactorMS:     0.78,
		PageSize:         8192,
		XferPageInstr:    4000,
		Cylinders:        1000,
		PagesPerCylinder: 48,
		MaxPacket:        8192,
		Send100BMS:       0.6,
		Send8KBMS:        5.6,
		RecvCostFraction: 0.5,
		WireMBps:         2.8,
		MIPS:             3.0,
		ReadPageInstr:    14600,
		WritePageInstr:   28000,
		TupleSize:        208,
		TuplesPerPacket:  36,
		TuplesPerPage:    36,
	}
}

// Validate reports an error for configurations the model cannot run.
func (p *Params) Validate() error {
	switch {
	case p.MIPS <= 0:
		return fmt.Errorf("hw: MIPS must be positive, got %g", p.MIPS)
	case p.PageSize <= 0:
		return fmt.Errorf("hw: PageSize must be positive, got %d", p.PageSize)
	case p.TransferMBps <= 0:
		return fmt.Errorf("hw: TransferMBps must be positive, got %g", p.TransferMBps)
	case p.WireMBps <= 0:
		return fmt.Errorf("hw: WireMBps must be positive, got %g", p.WireMBps)
	case p.Cylinders <= 0 || p.PagesPerCylinder <= 0:
		return fmt.Errorf("hw: disk geometry must be positive (%d cyl, %d pages/cyl)",
			p.Cylinders, p.PagesPerCylinder)
	case p.MaxPacket < p.TupleSize:
		return fmt.Errorf("hw: MaxPacket %d smaller than a tuple (%d)", p.MaxPacket, p.TupleSize)
	case p.TuplesPerPage <= 0 || p.TuplesPerPacket <= 0:
		return fmt.Errorf("hw: tuples per page/packet must be positive")
	case p.Send100BMS <= 0 || p.Send8KBMS < p.Send100BMS:
		return fmt.Errorf("hw: message costs must satisfy 0 < Send100BMS <= Send8KBMS")
	}
	return nil
}

// InstrTime converts an instruction count to simulated time at this CPU's
// MIPS rating.
func (p *Params) InstrTime(instr int) sim.Duration {
	return sim.Duration(float64(instr)/p.MIPS*1000 + 0.5) // instr/MIPS µs -> ns
}

// MsgCost returns the CPU cost of sending a message of the given size,
// linearly interpolated between the Table 2 anchor points (0.6 ms at 100
// bytes, 5.6 ms at 8192 bytes) and extrapolated below 100 bytes with the
// same slope, floored at a quarter of the 100-byte cost.
func (p *Params) MsgCost(bytes int) sim.Duration {
	slope := (p.Send8KBMS - p.Send100BMS) / float64(p.MaxPacket-100)
	ms := p.Send100BMS + slope*float64(bytes-100)
	if min := p.Send100BMS / 4; ms < min {
		ms = min
	}
	return sim.Milliseconds(ms)
}

// WireTime returns the NIC transmission time for a message of the given size.
func (p *Params) WireTime(bytes int) sim.Duration {
	return sim.Duration(float64(bytes)/(p.WireMBps*1024*1024)*1e9 + 0.5)
}

// PageTransferTime returns the disk-arm transfer time for one page.
func (p *Params) PageTransferTime() sim.Duration {
	return sim.Duration(float64(p.PageSize)/(p.TransferMBps*1024*1024)*1e9 + 0.5)
}

// SeekTime returns the arm movement time across dist cylinders, including
// head settle; zero for dist == 0 (no arm movement).
func (p *Params) SeekTime(dist int) sim.Duration {
	if dist <= 0 {
		return 0
	}
	ms := p.AvgSettleMS + p.SeekFactorMS*math.Sqrt(float64(dist))
	return sim.Milliseconds(ms)
}

// PagesPerDisk reports the disk capacity in pages.
func (p *Params) PagesPerDisk() int { return p.Cylinders * p.PagesPerCylinder }

// Cylinder maps a physical page number to its cylinder.
func (p *Params) Cylinder(physPage int) int { return physPage / p.PagesPerCylinder }

// TupleBytes returns the wire size of n tuples.
func (p *Params) TupleBytes(n int) int { return n * p.TupleSize }

// PagesForTuples returns the number of data pages n contiguous tuples occupy.
func (p *Params) PagesForTuples(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + p.TuplesPerPage - 1) / p.TuplesPerPage
}

// PacketsForTuples returns the number of network packets needed to ship n
// tuples at TuplesPerPacket per packet; zero tuples still need zero packets.
func (p *Params) PacketsForTuples(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + p.TuplesPerPacket - 1) / p.TuplesPerPacket
}
