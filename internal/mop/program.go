package mop

import (
	"fmt"
	"sort"
	"strings"
)

// Block is a basic block: a label, a straight-line MOP list, and at most
// one terminating branch. Fallthrough to the next block in function order
// is implied when the last MOP is not an unconditional branch or return.
type Block struct {
	Label string
	Ops   []MOP
}

// Terminator returns the final MOP if it is a sequencer operation, or a
// NOP MOP otherwise.
func (b *Block) Terminator() (MOP, bool) {
	if len(b.Ops) == 0 {
		return MOP{}, false
	}
	last := b.Ops[len(b.Ops)-1]
	if FieldOf(last.Op) == FieldSeq {
		return last, true
	}
	return MOP{}, false
}

// Function is an ordered list of basic blocks. Arguments are passed in
// GPR(0..n-1); the return value is produced in RegRetVal.
type Function struct {
	Name   string
	Params []string // parameter names, for diagnostics
	Blocks []*Block
}

// Block returns the block with the given label, or nil.
func (f *Function) Block(label string) *Block {
	for _, b := range f.Blocks {
		if b.Label == label {
			return b
		}
	}
	return nil
}

// NumOps counts the MOPs in the function.
func (f *Function) NumOps() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Ops)
	}
	return n
}

// Program is a set of functions plus the designated entry point.
type Program struct {
	Funcs map[string]*Function
	Entry string
}

// NewProgram returns an empty program with the given entry function name.
func NewProgram(entry string) *Program {
	return &Program{Funcs: map[string]*Function{}, Entry: entry}
}

// Add registers f, replacing any same-named function.
func (p *Program) Add(f *Function) { p.Funcs[f.Name] = f }

// Function returns the named function or nil.
func (p *Program) Function(name string) *Function { return p.Funcs[name] }

// SortedFuncs returns the functions in name order for deterministic
// iteration.
func (p *Program) SortedFuncs() []*Function {
	names := make([]string, 0, len(p.Funcs))
	for n := range p.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	fs := make([]*Function, len(names))
	for i, n := range names {
		fs[i] = p.Funcs[n]
	}
	return fs
}

// Validate checks structural invariants: entry exists, branch targets
// resolve, call targets resolve, branches only terminate blocks, and
// register indices are in range.
func (p *Program) Validate() error {
	if p.Entry != "" && p.Funcs[p.Entry] == nil {
		return fmt.Errorf("mop: entry function %q not defined", p.Entry)
	}
	for _, f := range p.SortedFuncs() {
		labels := map[string]bool{}
		for _, b := range f.Blocks {
			if labels[b.Label] {
				return fmt.Errorf("mop: %s: duplicate label %q", f.Name, b.Label)
			}
			labels[b.Label] = true
		}
		for _, b := range f.Blocks {
			for i, op := range b.Ops {
				if FieldOf(op.Op) == FieldSeq && op.Op != CALL && i != len(b.Ops)-1 {
					return fmt.Errorf("mop: %s/%s: branch %v not at block end", f.Name, b.Label, op)
				}
				switch op.Op {
				case BR, BEQ, BNE, BLT, BGE:
					if !labels[op.Sym] {
						return fmt.Errorf("mop: %s/%s: branch to unknown label %q", f.Name, b.Label, op.Sym)
					}
				case CALL:
					if p.Funcs[op.Sym] == nil {
						return fmt.Errorf("mop: %s/%s: call to unknown function %q", f.Name, b.Label, op.Sym)
					}
				case LDX, LDY:
					if !IsAddrReg(op.SrcA) {
						return fmt.Errorf("mop: %s/%s: %v: load address %s is not an address register", f.Name, b.Label, op, op.SrcA)
					}
				case STX, STY:
					if !IsAddrReg(op.SrcB) {
						return fmt.Errorf("mop: %s/%s: %v: store address %s is not an address register", f.Name, b.Label, op, op.SrcB)
					}
				case AGUX, AGUY:
					if !IsAddrReg(op.Dst) {
						return fmt.Errorf("mop: %s/%s: %v: AGU target %s is not an address register", f.Name, b.Label, op, op.Dst)
					}
				}
				for _, r := range append(op.DefsAll(), op.Uses()...) {
					if r != RegNone && (r < 0 || int(r) >= NumRegs) {
						return fmt.Errorf("mop: %s/%s: %v: register %d out of range", f.Name, b.Label, op, r)
					}
				}
			}
		}
	}
	return nil
}

// String renders the program as assembly-like text.
func (p *Program) String() string {
	var b strings.Builder
	for _, f := range p.SortedFuncs() {
		fmt.Fprintf(&b, "func %s(%s):\n", f.Name, strings.Join(f.Params, ", "))
		for _, blk := range f.Blocks {
			fmt.Fprintf(&b, "%s:\n", blk.Label)
			for _, op := range blk.Ops {
				fmt.Fprintf(&b, "\t%s\n", op)
			}
		}
	}
	return b.String()
}

// Successors returns the labels a block may transfer control to within
// its function (fallthrough included). A RET has no successors.
func (f *Function) Successors(i int) []string {
	b := f.Blocks[i]
	term, ok := b.Terminator()
	var next []string
	fallthroughTo := ""
	if i+1 < len(f.Blocks) {
		fallthroughTo = f.Blocks[i+1].Label
	}
	if !ok {
		if fallthroughTo != "" {
			next = append(next, fallthroughTo)
		}
		return next
	}
	switch term.Op {
	case BR:
		next = append(next, term.Sym)
	case BEQ, BNE, BLT, BGE:
		next = append(next, term.Sym)
		if fallthroughTo != "" {
			next = append(next, fallthroughTo)
		}
	case RET:
	}
	return next
}
