// Package kernel models the timing and area characteristics of the ASIP
// core (the "kernel" of Choi et al., DAC 1999): a µ-programmed, pipelined
// DSP processor with a separate AGU and dual data memories.
//
// The numbers here are a synthetic stand-in for the authors' proprietary
// core. Absolute values are arbitrary units; what matters for reproducing
// the paper is the *structure* of the model — one µ-word per cycle,
// multi-cycle divides, call/return pipeline overhead, and area accounted
// in code-memory words for software artifacts versus gate-equivalents for
// hardware ones.
package kernel

import "partita/internal/mop"

// CostModel gives the cycle cost of kernel execution events.
type CostModel struct {
	// WordCycles is the base cost of issuing one µ-code word.
	WordCycles int64
	// DivExtra is the additional stall of a DIV/REM µ-operation.
	DivExtra int64
	// CallExtra and RetExtra model pipeline refill on control transfer
	// into and out of a function.
	CallExtra int64
	RetExtra  int64
	// TakenBranchExtra models the pipeline bubble of a taken branch.
	TakenBranchExtra int64
}

// DefaultCost returns the cost model used throughout the reproduction.
func DefaultCost() CostModel {
	return CostModel{
		WordCycles:       1,
		DivExtra:         7,
		CallExtra:        2,
		RetExtra:         2,
		TakenBranchExtra: 1,
	}
}

// BlockCycles reports the base cycles of one execution of a packed block
// (not counting taken-branch/call/return extras, which depend on dynamic
// behaviour).
func (c CostModel) BlockCycles(ops []mop.MOP) int64 {
	words := mop.PackBlock(ops)
	cycles := int64(len(words)) * c.WordCycles
	for _, op := range ops {
		if op.Op == mop.DIV || op.Op == mop.REM {
			cycles += c.DivExtra
		}
	}
	return cycles
}

// AreaModel gives the area cost of hardware and software artifacts in the
// paper's (dimensionless) area units.
type AreaModel struct {
	// PerCodeWord is the code-memory area of one µ-code word. Software
	// interfaces (types 0 and 1) pay this per word of interface code.
	PerCodeWord float64
	// PerFSMState is the area of one state of a hardware interface FSM
	// (types 2 and 3).
	PerFSMState float64
	// PerBufferWord is the area of one word of interface buffer (types 1
	// and 3).
	PerBufferWord float64
	// BufferCtlOverhead is the fixed addressing/controller logic cost of
	// having buffers at all (types 1 and 3); it keeps the buffered types
	// strictly more expensive than their unbuffered siblings, as in the
	// paper's cost ordering.
	BufferCtlOverhead float64
	// MuxOverhead is the fixed wiring/mux cost of attaching any IP.
	MuxOverhead float64
}

// DefaultArea returns the area model used throughout the reproduction.
// The constants are calibrated so that the interface-area column of the
// paper's tables is reproduced in shape: a type-0 interface costs ~2-4
// units, buffers add ~10 units for a 32-word pair, and FSMs land between.
func DefaultArea() AreaModel {
	return AreaModel{
		PerCodeWord:       0.125,
		PerFSMState:       0.25,
		PerBufferWord:     0.15,
		BufferCtlOverhead: 1.0,
		MuxOverhead:       0.5,
	}
}
