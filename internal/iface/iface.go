// Package iface implements the four IP-interface methods of Choi et al.
// (DAC 1999), Section 3:
//
//	Type 0 — software in/out controller, no buffers (cheapest, slowest)
//	Type 1 — software controller with in/out buffers (parallel execution)
//	Type 2 — hardware FSM controller, no buffers (DMA-style)
//	Type 3 — hardware FSM controller with buffers (fastest, largest)
//
// For each (IP, invocation shape) the package enumerates the feasible
// interface types with their execution-time and area models, generates
// the µ-code interface templates of Figs. 4-5 for the software types, and
// the controller FSMs of Figs. 6-7 for the hardware types.
package iface

import (
	"fmt"

	"partita/internal/ip"
	"partita/internal/kernel"
)

// Type identifies an interface method.
type Type int

const (
	Type0 Type = iota // software controller, no buffer
	Type1             // software controller, buffered
	Type2             // hardware FSM, no buffer
	Type3             // hardware FSM, buffered
	NumTypes
)

func (t Type) String() string { return fmt.Sprintf("IF%d", int(t)) }

// Buffered reports whether the type uses in/out buffers.
func (t Type) Buffered() bool { return t == Type1 || t == Type3 }

// Software reports whether the in/out controller runs in the kernel.
func (t Type) Software() bool { return t == Type0 || t == Type1 }

// SupportsParallel reports whether kernel code can run while the IP runs
// (Fig. 2). Only the buffered types avoid memory contention.
func (t Type) SupportsParallel() bool { return t.Buffered() }

// type0TemplateRate is the in/out data rate (kernel cycles per item) the
// Fig. 4 software template sustains. IPs consuming faster than this must
// be clocked down (slow clock), IPs slower get NOP padding.
const type0TemplateRate = 4

// Shape describes one invocation of an IP: how many data items flow in
// and out, and the pure-software time and available parallel-code time
// of the s-call being accelerated.
type Shape struct {
	NIn, NOut int
	// TSW is the software execution time of the s-call (T_SW).
	TSW int64
	// TC is the guaranteed parallel-code time (T_C); used only by the
	// buffered types.
	TC int64
}

// Candidate is one feasible (interface type, IP) attachment with its
// full timing and area breakdown.
type Candidate struct {
	Type Type
	IP   *ip.IP

	// Timing (kernel cycles).
	TIP    int64 // IP execution time (after any slow-clocking)
	TIF    int64 // unbuffered transfer time (types 0/2)
	TIFIn  int64 // buffer fill (types 1/3)
	TIFOut int64 // buffer drain (types 1/3)
	TB     int64 // buffer↔IP transfer time (types 1/3)
	TCUsed int64 // parallel-code time credited (types 1/3)
	Exec   int64 // resulting execution time of the S-instruction
	Gain   int64 // T_SW − Exec

	// ClockDiv > 1 means the IP clock was divided to match the type-0
	// template rate.
	ClockDiv int

	// Area breakdown (paper units). IfaceArea = A_CNT + A_B + protocol
	// transformer + mux; it excludes the IP's own area.
	CodeWords int // µ-code words of the software controller
	FSMStates int // states of the hardware controller
	BufWords  int // total buffer words
	IfaceArea float64
}

// pairs is the number of dual-memory transfer beats for n items: the
// kernel moves at most two items per beat (one X, one Y).
func pairs(n int) int64 {
	if n <= 0 {
		return 0
	}
	return int64((n + 1) / 2)
}

// Candidates enumerates every feasible interface type for attaching
// block b under the given invocation shape, with areas computed from the
// generated controller artifacts under the area model.
func Candidates(b *ip.IP, s Shape, am kernel.AreaModel) []Candidate {
	var out []Candidate
	for t := Type0; t < NumTypes; t++ {
		if c, ok := Plan(t, b, s, am); ok {
			out = append(out, c)
		}
	}
	return out
}

// Plan builds the candidate for one specific interface type; ok is false
// when the type cannot support the block (port count, rate mismatch).
func Plan(t Type, b *ip.IP, s Shape, am kernel.AreaModel) (Candidate, bool) {
	c := Candidate{Type: t, IP: b, ClockDiv: 1}
	ptArea := float64(b.Protocol.TransformerStates()) * am.PerFSMState

	switch t {
	case Type0:
		// ≤2 ports per direction (one X + one Y operand per cycle) and
		// equal in/out rates (the single software loop of Fig. 4 cannot
		// interleave two different rates).
		if b.InPorts > 2 || b.OutPorts > 2 || b.InRate != b.OutRate {
			return c, false
		}
		if b.InRate < type0TemplateRate {
			// Slow the IP clock until its data rate matches the
			// template's sustained rate.
			c.ClockDiv = (type0TemplateRate + b.InRate - 1) / b.InRate
		}
		c.TIP = b.ExecCycles(s.NIn, s.NOut) * int64(c.ClockDiv)
		tmpl, err := SoftwareTemplate(t, b, s)
		if err != nil {
			return c, false
		}
		c.CodeWords = tmpl.Words
		c.TIF = tmpl.TransferCycles
		c.Exec = max(c.TIP, c.TIF)
		c.IfaceArea = float64(c.CodeWords)*am.PerCodeWord + ptArea + am.MuxOverhead
	case Type1:
		c.TIP = b.ExecCycles(s.NIn, s.NOut)
		tmpl, err := SoftwareTemplate(t, b, s)
		if err != nil {
			return c, false
		}
		c.CodeWords = tmpl.Words
		c.TIFIn = tmpl.FillCycles
		c.TIFOut = tmpl.DrainCycles
		c.TB = max(int64(s.NIn)*int64(b.InRate), int64(s.NOut)*int64(b.OutRate))
		c.TCUsed = min(c.TIP, s.TC)
		c.Exec = c.TIFIn + max(c.TIP, c.TB) + c.TIFOut - c.TCUsed
		c.BufWords = s.NIn + s.NOut
		c.IfaceArea = float64(c.CodeWords)*am.PerCodeWord +
			float64(c.BufWords)*am.PerBufferWord + am.BufferCtlOverhead +
			ptArea + am.MuxOverhead
	case Type2:
		if b.InPorts > 2 || b.OutPorts > 2 {
			return c, false
		}
		c.TIP = b.ExecCycles(s.NIn, s.NOut)
		f, err := ControllerFSM(t, b, s)
		if err != nil {
			return c, false
		}
		c.FSMStates = len(f.States)
		// DMA moves up to two items per clock on each side; in and out
		// streams overlap in the middle part of Fig. 6.
		c.TIF = max(pairs(s.NIn), pairs(s.NOut)) + 2
		c.Exec = max(c.TIP, c.TIF)
		c.IfaceArea = float64(c.FSMStates)*am.PerFSMState + ptArea + am.MuxOverhead
	case Type3:
		c.TIP = b.ExecCycles(s.NIn, s.NOut)
		f, err := ControllerFSM(t, b, s)
		if err != nil {
			return c, false
		}
		c.FSMStates = len(f.States)
		c.TIFIn = pairs(s.NIn) + 1
		c.TIFOut = pairs(s.NOut) + 1
		c.TB = max(int64(s.NIn)*int64(b.InRate), int64(s.NOut)*int64(b.OutRate))
		c.TCUsed = min(c.TIP, s.TC)
		c.Exec = c.TIFIn + max(c.TIP, c.TB) + c.TIFOut - c.TCUsed
		c.BufWords = s.NIn + s.NOut
		c.IfaceArea = float64(c.FSMStates)*am.PerFSMState +
			float64(c.BufWords)*am.PerBufferWord + am.BufferCtlOverhead +
			ptArea + am.MuxOverhead
	default:
		return c, false
	}
	c.Gain = s.TSW - c.Exec
	return c, true
}

// String renders a candidate compactly, in the notation of the paper's
// tables ("IP12,IF0,gain,area").
func (c Candidate) String() string {
	return fmt.Sprintf("%s,%s,gain=%d,ifarea=%.3g", c.IP.ID, c.Type, c.Gain, c.IfaceArea)
}
