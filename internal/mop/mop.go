// Package mop defines the µ-operation (MOP) instruction set of the target
// ASIP kernel described in Choi et al. (DAC 1999), Section 2: a pipelined
// DSP core with a separate address-generation unit (AGU) and two data
// memories (XDM and YDM) that can be accessed in the same cycle. Each
// µ-code word has eight fields so that an arithmetic operation, memory
// transfers, AGU updates, a register move, and a sequencer operation can
// execute in parallel; each operation occupying one field is a MOP.
//
// The package provides the MOP vocabulary, program containers (functions
// of basic blocks), a validator, and an 8-field µ-word packer used to
// derive kernel cycle counts and µ-code ROM sizes.
package mop

import (
	"fmt"
	"strings"
)

// Opcode enumerates every µ-operation the kernel supports. The P-class
// instruction set of the paper (primitive arithmetic plus control) is
// exactly the set of single-MOP instructions.
type Opcode int

const (
	NOP Opcode = iota

	// ALU field.
	ADD
	SUB
	AND
	OR
	XOR
	SHL // shift left by immediate
	SHR // arithmetic shift right by immediate
	NEG
	ABS
	CMP // sets flags from SrcA - SrcB
	MIN
	MAX
	SAT // saturate accumulator into Dst
	DIV // multi-cycle signed divide
	REM // multi-cycle signed remainder

	// Multiplier field.
	MUL
	MAC // Dst += SrcA * SrcB

	// Move field.
	MOV // register-to-register
	LDI // load immediate into Dst

	// X-memory field.
	LDX // Dst = XDM[addr reg], with optional post-modify
	STX // XDM[addr reg] = SrcA

	// Y-memory field.
	LDY
	STY

	// AGU fields.
	AGUX // update X address register: Dst(addr reg) op= Imm
	AGUY

	// Sequencer field.
	BR   // unconditional branch to Sym
	BEQ  // branch if last CMP equal
	BNE  // branch if not equal
	BLT  // branch if less-than
	BGE  // branch if greater-or-equal
	CALL // call function Sym
	RET

	numOpcodes
)

var opcodeNames = [...]string{
	NOP: "nop", ADD: "add", SUB: "sub", AND: "and", OR: "or", XOR: "xor",
	SHL: "shl", SHR: "shr", NEG: "neg", ABS: "abs", CMP: "cmp", MIN: "min",
	MAX: "max", SAT: "sat", DIV: "div", REM: "rem", MUL: "mul", MAC: "mac",
	MOV: "mov", LDI: "ldi",
	LDX: "ldx", STX: "stx", LDY: "ldy", STY: "sty", AGUX: "agux", AGUY: "aguy",
	BR: "br", BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge", CALL: "call",
	RET: "ret",
}

func (o Opcode) String() string {
	if o >= 0 && int(o) < len(opcodeNames) && opcodeNames[o] != "" {
		return opcodeNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Field identifies one of the eight fields of a µ-code word.
type Field int

const (
	FieldALU Field = iota
	FieldMul
	FieldMove
	FieldXMem
	FieldYMem
	FieldAGUX
	FieldAGUY
	FieldSeq
	NumFields
)

var fieldNames = [...]string{"alu", "mul", "move", "xmem", "ymem", "agux", "aguy", "seq"}

func (f Field) String() string {
	if f >= 0 && int(f) < len(fieldNames) {
		return fieldNames[f]
	}
	return fmt.Sprintf("field(%d)", int(f))
}

// FieldOf reports which µ-word field an opcode occupies.
func FieldOf(o Opcode) Field {
	switch o {
	case ADD, SUB, AND, OR, XOR, SHL, SHR, NEG, ABS, CMP, MIN, MAX, SAT, DIV, REM:
		return FieldALU
	case MUL, MAC:
		return FieldMul
	case MOV, LDI:
		return FieldMove
	case LDX, STX:
		return FieldXMem
	case LDY, STY:
		return FieldYMem
	case AGUX:
		return FieldAGUX
	case AGUY:
		return FieldAGUY
	case BR, BEQ, BNE, BLT, BGE, CALL, RET:
		return FieldSeq
	}
	return FieldALU // NOP packs anywhere; by convention report ALU
}

// IsConditional reports whether o is a conditional branch.
func IsConditional(o Opcode) bool {
	switch o {
	case BEQ, BNE, BLT, BGE:
		return true
	}
	return false
}

// Reg names a kernel register. The file is split into general registers
// (R0..), X/Y address registers for the AGU, and a handful of specials.
type Reg int

const (
	RegNone Reg = -1
)

const (
	// NumGPR general-purpose registers R0..R15.
	NumGPR = 16
	// NumAddr address registers per AGU bank (AX0..AX3, AY0..AY3).
	NumAddr = 4
)

const (
	firstGPR  Reg = 0
	firstAX   Reg = firstGPR + NumGPR
	firstAY   Reg = firstAX + NumAddr
	RegAcc    Reg = firstAY + NumAddr // multiplier accumulator
	RegRetVal Reg = RegAcc + 1        // function return value
	NumRegs       = int(RegRetVal) + 1
)

// GPR returns general register i (0 ≤ i < NumGPR).
func GPR(i int) Reg { return firstGPR + Reg(i) }

// AX returns X-bank address register i.
func AX(i int) Reg { return firstAX + Reg(i) }

// AY returns Y-bank address register i.
func AY(i int) Reg { return firstAY + Reg(i) }

// IsAddrReg reports whether r belongs to either AGU bank.
func IsAddrReg(r Reg) bool { return r >= firstAX && r < RegAcc }

func (r Reg) String() string {
	switch {
	case r == RegNone:
		return "-"
	case r >= firstGPR && r < firstAX:
		return fmt.Sprintf("r%d", int(r-firstGPR))
	case r >= firstAX && r < firstAY:
		return fmt.Sprintf("ax%d", int(r-firstAX))
	case r >= firstAY && r < RegAcc:
		return fmt.Sprintf("ay%d", int(r-firstAY))
	case r == RegAcc:
		return "acc"
	case r == RegRetVal:
		return "rv"
	}
	return fmt.Sprintf("reg(%d)", int(r))
}

// MOP is a single µ-operation. Operand use depends on the opcode:
//
//   - ALU/MUL ops: Dst = SrcA op SrcB (SHL/SHR use Imm as the shift count).
//   - MOV: Dst = SrcA; LDI: Dst = Imm.
//   - LDX/LDY: Dst = mem[SrcA] where SrcA is an address register; Imm is
//     the post-modify step applied to SrcA after the access.
//   - STX/STY: mem[SrcB] = SrcA with post-modify Imm on SrcB.
//   - AGUX/AGUY: Dst (an address register) += Imm, or = Imm if SrcA==RegNone
//     and Abs is set.
//   - Branches: Sym is the target label; CALL's Sym is the callee name.
type MOP struct {
	Op   Opcode
	Dst  Reg
	SrcA Reg
	SrcB Reg
	Imm  int64
	Sym  string
	// Abs marks AGUX/AGUY as an absolute load (Dst = Imm) rather than a
	// post-modify add.
	Abs bool
	// Pos is an optional source position (token offset) for diagnostics.
	Pos int
}

func (m MOP) String() string {
	var b strings.Builder
	b.WriteString(m.Op.String())
	switch m.Op {
	case NOP, RET:
	case BR, BEQ, BNE, BLT, BGE, CALL:
		fmt.Fprintf(&b, " %s", m.Sym)
	case LDI:
		fmt.Fprintf(&b, " %s, #%d", m.Dst, m.Imm)
	case MOV:
		fmt.Fprintf(&b, " %s, %s", m.Dst, m.SrcA)
	case LDX, LDY:
		fmt.Fprintf(&b, " %s, [%s]+%d", m.Dst, m.SrcA, m.Imm)
	case STX, STY:
		fmt.Fprintf(&b, " [%s]+%d, %s", m.SrcB, m.Imm, m.SrcA)
	case AGUX, AGUY:
		if m.Abs {
			fmt.Fprintf(&b, " %s = #%d", m.Dst, m.Imm)
		} else {
			fmt.Fprintf(&b, " %s += #%d", m.Dst, m.Imm)
		}
	case SHL, SHR:
		fmt.Fprintf(&b, " %s, %s, #%d", m.Dst, m.SrcA, m.Imm)
	case CMP:
		fmt.Fprintf(&b, " %s, %s", m.SrcA, m.SrcB)
	case NEG, ABS, SAT:
		fmt.Fprintf(&b, " %s, %s", m.Dst, m.SrcA)
	default:
		fmt.Fprintf(&b, " %s, %s, %s", m.Dst, m.SrcA, m.SrcB)
	}
	return b.String()
}

// Defs returns the register written by m, or RegNone.
func (m MOP) Defs() Reg {
	switch m.Op {
	case ADD, SUB, AND, OR, XOR, SHL, SHR, NEG, ABS, MIN, MAX, SAT, DIV, REM,
		MUL, MOV, LDI, LDX, LDY, AGUX, AGUY:
		return m.Dst
	case MAC:
		return m.Dst // read-modify-write
	}
	return RegNone
}

// Uses returns the registers read by m (excluding flag reads).
func (m MOP) Uses() []Reg {
	var u []Reg
	add := func(r Reg) {
		if r != RegNone {
			u = append(u, r)
		}
	}
	switch m.Op {
	case ADD, SUB, AND, OR, XOR, MIN, MAX, MUL, CMP, DIV, REM:
		add(m.SrcA)
		add(m.SrcB)
	case MAC:
		add(m.Dst) // accumulates
		add(m.SrcA)
		add(m.SrcB)
	case SHL, SHR, NEG, ABS, SAT, MOV:
		add(m.SrcA)
	case LDX, LDY:
		add(m.SrcA) // address register (also post-modified)
	case STX, STY:
		add(m.SrcA) // value
		add(m.SrcB) // address register
	case AGUX, AGUY:
		if !m.Abs {
			add(m.Dst)
		}
	}
	return u
}

// DefsAll returns every register written by m, including address
// registers updated by load/store post-modify. The slice is freshly
// allocated.
func (m MOP) DefsAll() []Reg {
	var d []Reg
	if r := m.Defs(); r != RegNone {
		d = append(d, r)
	}
	switch m.Op {
	case LDX, LDY:
		if m.Imm != 0 {
			d = append(d, m.SrcA)
		}
	case STX, STY:
		if m.Imm != 0 {
			d = append(d, m.SrcB)
		}
	}
	return d
}

// ReadsFlags reports whether m consumes the ALU flags (conditional branch).
func (m MOP) ReadsFlags() bool { return IsConditional(m.Op) }

// WritesFlags reports whether m sets the ALU flags.
func (m MOP) WritesFlags() bool { return m.Op == CMP }

// MemEffect describes the memory access of m, if any.
type MemEffect int

const (
	MemNone MemEffect = iota
	MemReadX
	MemWriteX
	MemReadY
	MemWriteY
)

// Mem reports which memory bank and direction m touches.
func (m MOP) Mem() MemEffect {
	switch m.Op {
	case LDX:
		return MemReadX
	case STX:
		return MemWriteX
	case LDY:
		return MemReadY
	case STY:
		return MemWriteY
	}
	return MemNone
}
