package iface

import (
	"fmt"

	"partita/internal/ip"
	"partita/internal/mop"
)

// Template is a generated software interface (Fig. 4 for type 0, Fig. 5
// for type 1): real µ-code whose packed size gives the code-memory area
// and whose loop structure gives the transfer timing.
type Template struct {
	Type Type
	// Fn is the generated µ-code, structured as one function whose
	// blocks mirror the numbered template lines of the paper's figures.
	Fn *mop.Function
	// Words is the µ-ROM footprint (packed words over all blocks).
	Words int
	// TransferCycles is T_IF for type 0: total kernel time spent moving
	// operands/results for the given shape.
	TransferCycles int64
	// FillCycles/DrainCycles are T_IF_IN and T_IF_OUT for type 1.
	FillCycles, DrainCycles int64
}

// Register conventions inside interface templates. The IP's ports appear
// to the kernel as two dedicated move-target registers (the S-IF codes of
// Fig. 3 move data between memory and the IP through the kernel buses).
var (
	ipInReg  = mop.GPR(14)
	ipOutReg = mop.GPR(15)
)

// SoftwareTemplate generates the type-0 or type-1 interface µ-code for
// block b under shape s. Only the software types are valid arguments;
// hardware types return an error.
func SoftwareTemplate(t Type, b *ip.IP, s Shape) (*Template, error) {
	switch t {
	case Type0:
		return type0Template(b, s), nil
	case Type1:
		return type1Template(b, s), nil
	}
	return nil, fmt.Errorf("iface: SoftwareTemplate called for hardware type %v", t)
}

// loopWords packs a block and returns its word count.
func loopWords(ops []mop.MOP) int64 { return int64(len(mop.PackBlock(ops))) }

// type0Template mirrors Fig. 4: fill the IP pipeline from memory
// (lines 2-5), stream operands in and results out (lines 6-9), then
// drain the pipeline (lines 10-13).
func type0Template(b *ip.IP, s Shape) *Template {
	cnt, data, dataY := mop.GPR(10), mop.GPR(11), mop.GPR(12)
	one := mop.GPR(13)
	init := &mop.Block{Label: "init", Ops: []mop.MOP{
		// Line 1: loop counts and address registers.
		{Op: mop.LDI, Dst: cnt, Imm: 0},
		{Op: mop.LDI, Dst: one, Imm: 1},
		{Op: mop.AGUX, Dst: mop.AX(0), Imm: 0, Abs: true},
		{Op: mop.AGUY, Dst: mop.AY(0), Imm: 0, Abs: true},
		{Op: mop.AGUX, Dst: mop.AX(1), Imm: 0, Abs: true},
		{Op: mop.AGUY, Dst: mop.AY(1), Imm: 0, Abs: true},
	}}
	fill := &mop.Block{Label: "fill", Ops: []mop.MOP{
		// Lines 2-3: fetch an X/Y operand pair, hand it to the IP.
		{Op: mop.LDX, Dst: data, SrcA: mop.AX(0), Imm: 1},
		{Op: mop.LDY, Dst: dataY, SrcA: mop.AY(0), Imm: 1},
		{Op: mop.MOV, Dst: ipInReg, SrcA: data},
		// Lines 4-5: decrement, loop.
		{Op: mop.SUB, Dst: cnt, SrcA: cnt, SrcB: one},
		{Op: mop.CMP, SrcA: cnt, SrcB: one},
		{Op: mop.BNE, Sym: "fill"},
	}}
	stream := &mop.Block{Label: "stream", Ops: []mop.MOP{
		// Lines 6-9: operands in and results out in the same iteration;
		// the µ-word fields let loads, moves and stores pack tightly.
		{Op: mop.LDX, Dst: data, SrcA: mop.AX(0), Imm: 1},
		{Op: mop.LDY, Dst: dataY, SrcA: mop.AY(0), Imm: 1},
		{Op: mop.MOV, Dst: ipInReg, SrcA: data},
		{Op: mop.MOV, Dst: mop.GPR(9), SrcA: ipOutReg},
		{Op: mop.STX, SrcA: mop.GPR(9), SrcB: mop.AX(1), Imm: 1},
		{Op: mop.STY, SrcA: dataY, SrcB: mop.AY(1), Imm: 1},
		{Op: mop.SUB, Dst: cnt, SrcA: cnt, SrcB: one},
		{Op: mop.CMP, SrcA: cnt, SrcB: one},
		{Op: mop.BNE, Sym: "stream"},
	}}
	drain := &mop.Block{Label: "drain", Ops: []mop.MOP{
		// Lines 10-13: flush remaining pipeline contents to memory.
		{Op: mop.MOV, Dst: mop.GPR(9), SrcA: ipOutReg},
		{Op: mop.STX, SrcA: mop.GPR(9), SrcB: mop.AX(1), Imm: 1},
		{Op: mop.SUB, Dst: cnt, SrcA: cnt, SrcB: one},
		{Op: mop.CMP, SrcA: cnt, SrcB: one},
		{Op: mop.BNE, Sym: "drain"},
	}}
	done := &mop.Block{Label: "done", Ops: []mop.MOP{{Op: mop.RET}}}
	fn := &mop.Function{Name: "sif0_" + b.ID, Blocks: []*mop.Block{init, fill, stream, drain, done}}

	words := 0
	for _, blk := range fn.Blocks {
		words += len(mop.PackBlock(blk.Ops))
	}

	// Iteration counts from the shape: the pipeline depth (in data
	// items) sets the input-only and output-only parts.
	depth := int64(1)
	if b.InRate > 0 {
		depth = (int64(b.Latency) + int64(b.InRate) - 1) / int64(b.InRate)
	}
	pin, pout := pairs(s.NIn), pairs(s.NOut)
	fillIters := min(depth, pin)
	mainIters := max(pin, pout) - fillIters
	if mainIters < 0 {
		mainIters = 0
	}
	drainIters := min(depth, pout)

	// A rate slower than the 4-cycle template adds NOP padding cycles
	// per iteration (Section 3, type 0).
	pad := int64(0)
	if b.InRate > type0TemplateRate {
		pad = int64(b.InRate - type0TemplateRate)
	}
	tr := loopWords(init.Ops) +
		fillIters*(loopWords(fill.Ops)+pad) +
		mainIters*(loopWords(stream.Ops)+pad) +
		drainIters*(loopWords(drain.Ops)+pad)

	return &Template{Type: Type0, Fn: fn, Words: words, TransferCycles: tr}
}

// type1Template mirrors Fig. 5: fill the in-buffer (lines 2-5), start the
// IP (line 6), and after the parallel-code window drain the out-buffer
// (lines 7-10). Buffers are addressed through the second AGU registers.
func type1Template(b *ip.IP, s Shape) *Template {
	cnt, data, dataY := mop.GPR(10), mop.GPR(11), mop.GPR(12)
	one := mop.GPR(13)
	init := &mop.Block{Label: "init", Ops: []mop.MOP{
		{Op: mop.LDI, Dst: cnt, Imm: 0},
		{Op: mop.LDI, Dst: one, Imm: 1},
		{Op: mop.AGUX, Dst: mop.AX(0), Imm: 0, Abs: true},
		{Op: mop.AGUY, Dst: mop.AY(0), Imm: 0, Abs: true},
	}}
	fill := &mop.Block{Label: "fillbuf", Ops: []mop.MOP{
		{Op: mop.LDX, Dst: data, SrcA: mop.AX(0), Imm: 1},
		{Op: mop.LDY, Dst: dataY, SrcA: mop.AY(0), Imm: 1},
		{Op: mop.MOV, Dst: ipInReg, SrcA: data}, // buff_in[][] = in-data
		{Op: mop.SUB, Dst: cnt, SrcA: cnt, SrcB: one},
		{Op: mop.CMP, SrcA: cnt, SrcB: one},
		{Op: mop.BNE, Sym: "fillbuf"},
	}}
	start := &mop.Block{Label: "start", Ops: []mop.MOP{
		// Line 6: IP_start = 1; parallel code runs after this point.
		{Op: mop.LDI, Dst: ipInReg, Imm: 1},
	}}
	drain := &mop.Block{Label: "drainbuf", Ops: []mop.MOP{
		{Op: mop.MOV, Dst: mop.GPR(9), SrcA: ipOutReg}, // out-data = buff_out[][]
		{Op: mop.STX, SrcA: mop.GPR(9), SrcB: mop.AX(1), Imm: 1},
		{Op: mop.SUB, Dst: cnt, SrcA: cnt, SrcB: one},
		{Op: mop.CMP, SrcA: cnt, SrcB: one},
		{Op: mop.BNE, Sym: "drainbuf"},
	}}
	done := &mop.Block{Label: "done", Ops: []mop.MOP{{Op: mop.RET}}}
	fn := &mop.Function{Name: "sif1_" + b.ID, Blocks: []*mop.Block{init, fill, start, drain, done}}

	words := 0
	for _, blk := range fn.Blocks {
		words += len(mop.PackBlock(blk.Ops))
	}
	fillCycles := loopWords(init.Ops) + pairs(s.NIn)*loopWords(fill.Ops) + loopWords(start.Ops)
	drainCycles := pairs(s.NOut) * loopWords(drain.Ops)
	return &Template{Type: Type1, Fn: fn, Words: words, FillCycles: fillCycles, DrainCycles: drainCycles}
}
