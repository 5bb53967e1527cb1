// Package encode implements the back end of the Partita flow (Choi et
// al., DAC 1999, Section 2): after P/C/S-instruction generation, "all
// newly generated instructions are encoded in the instruction space, and
// the µ-ROM is optimized with including the µ-codes for the C- and
// S-instructions", and the decode/fetch units are synthesized around the
// result.
//
// The model here is a µ-programmed instruction space:
//
//   - every packed µ-word of the program becomes a P-class instruction
//     word that names its µ-word in a deduplicated dictionary (µ-ROM
//     optimization: identical µ-words are stored once);
//   - each generated C-instruction is one opcode whose body (a µ-word
//     sequence) is placed in the µ-ROM once and expanded by the decoder;
//   - each S-instruction is one opcode bound to an interface routine.
//
// Instruction words are 32 bits: 2 class bits, 10 opcode/index-page
// bits, 20 operand bits. µ-words are bit-packed at 58 bits per occupied
// field plus an 8-bit presence mask. Encoding and decoding round-trip
// exactly; the decode tables double as the synthesized decoder model.
package encode

import (
	"fmt"
	"strings"

	"partita/internal/cinstr"
	"partita/internal/mop"
)

// Class is the instruction class of the target ASIP.
type Class int

const (
	// ClassP instructions execute one µ-word.
	ClassP Class = iota
	// ClassC instructions expand to a µ-ROM routine (C-instruction).
	ClassC
	// ClassS instructions trigger an IP through its interface.
	ClassS
)

func (c Class) String() string {
	switch c {
	case ClassP:
		return "P"
	case ClassC:
		return "C"
	case ClassS:
		return "S"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// fieldBits is the packed size of one occupied µ-word field:
// opcode(6) dst(7) srcA(7) srcB(7) abs(1) imm(30).
const fieldBits = 58

// maskBits is the per-word field presence mask.
const maskBits = 8

// instrWidth is the instruction word width.
const instrWidth = 32

// Instr is one decoded instruction-stream entry.
type Instr struct {
	Class Class
	// Opcode indexes the class's decode table: the µ-word dictionary
	// for P, the C-routine table for C, the S-routine table for S.
	Opcode int
}

// CRoutine is a C-instruction body placed in µ-ROM.
type CRoutine struct {
	ID string
	// Words indexes the µ-word dictionary, one entry per body word.
	Words []int
}

// SRoutine is an S-instruction binding.
type SRoutine struct {
	Name string
}

// Image is the encoded program.
type Image struct {
	// Stream is the encoded instruction memory, one uint32 per
	// instruction, in function/block order.
	Stream []uint32
	// StreamIndex locates each function's first instruction.
	StreamIndex map[string]int

	// Dict is the deduplicated µ-word dictionary (the optimized µ-ROM
	// payload for P-class execution).
	Dict []mop.Word
	// CRoutines and SRoutines are the class decode tables.
	CRoutines []CRoutine
	SRoutines []SRoutine

	// Statistics.
	TotalWords      int // packed µ-words before encoding
	UniqueWords     int // dictionary entries
	RawMicroBits    int // µ-ROM bits without dictionary sharing
	OptMicroBits    int // µ-ROM bits with the dictionary
	InstrMemoryBits int // instruction-stream bits
}

// Compression reports the µ-ROM size ratio achieved by deduplication.
func (im *Image) Compression() float64 {
	if im.RawMicroBits == 0 {
		return 1
	}
	return float64(im.OptMicroBits) / float64(im.RawMicroBits)
}

// Build encodes prog with the given C-instructions (from package cinstr)
// and S-instruction names. C-instruction sites are collapsed to single
// C-class instruction words.
func Build(prog *mop.Program, cs []*cinstr.CInstr, sNames []string) (*Image, error) {
	im := &Image{StreamIndex: map[string]int{}}
	dictIndex := map[string]int{}

	internWord := func(w mop.Word) int {
		key := wordKey(&w)
		if i, ok := dictIndex[key]; ok {
			return i
		}
		dictIndex[key] = len(im.Dict)
		im.Dict = append(im.Dict, w)
		return len(im.Dict) - 1
	}

	// Index C-instruction sites: (fn, block, offset) → (cIdx, len).
	type siteKey struct {
		fn, block string
		off       int
	}
	cAt := map[siteKey]int{}
	for ci, c := range cs {
		for _, s := range c.Sites {
			cAt[siteKey{s.Fn, s.Block, s.Offset}] = ci
		}
	}

	// Pre-place C routine bodies by interning their words from a first
	// pass over the program (bodies are defined by their first site).
	bodies := make([][]int, len(cs))
	for ci, c := range cs {
		if len(c.Sites) == 0 {
			return nil, fmt.Errorf("encode: C-instruction %s has no sites", c.ID)
		}
		s := c.Sites[0]
		f := prog.Function(s.Fn)
		if f == nil {
			return nil, fmt.Errorf("encode: C-instruction %s references unknown function %q", c.ID, s.Fn)
		}
		blk := f.Block(s.Block)
		if blk == nil {
			return nil, fmt.Errorf("encode: C-instruction %s references unknown block %s/%s", c.ID, s.Fn, s.Block)
		}
		words := mop.PackBlock(blk.Ops)
		if s.Offset+c.Len > len(words) {
			return nil, fmt.Errorf("encode: C-instruction %s site out of range", c.ID)
		}
		idx := make([]int, c.Len)
		for i := 0; i < c.Len; i++ {
			idx[i] = internWord(words[s.Offset+i])
		}
		bodies[ci] = idx
		im.CRoutines = append(im.CRoutines, CRoutine{ID: c.ID, Words: idx})
	}
	for _, n := range sNames {
		im.SRoutines = append(im.SRoutines, SRoutine{Name: n})
	}

	// Encode the stream.
	for _, f := range prog.SortedFuncs() {
		im.StreamIndex[f.Name] = len(im.Stream)
		for _, blk := range f.Blocks {
			words := mop.PackBlock(blk.Ops)
			im.TotalWords += len(words)
			for off := 0; off < len(words); {
				if ci, ok := cAt[siteKey{f.Name, blk.Label, off}]; ok {
					enc, err := encodeInstr(Instr{Class: ClassC, Opcode: ci})
					if err != nil {
						return nil, err
					}
					im.Stream = append(im.Stream, enc)
					off += cs[ci].Len
					continue
				}
				di := internWord(words[off])
				enc, err := encodeInstr(Instr{Class: ClassP, Opcode: di})
				if err != nil {
					return nil, err
				}
				im.Stream = append(im.Stream, enc)
				off++
			}
		}
	}

	im.UniqueWords = len(im.Dict)
	im.RawMicroBits = im.TotalWords * wordBitsMax()
	im.OptMicroBits = im.UniqueWords * wordBitsMax()
	for _, r := range im.CRoutines {
		// Routine tables add one dictionary pointer per body word.
		im.OptMicroBits += len(r.Words) * dictPtrBits(im.UniqueWords)
	}
	im.InstrMemoryBits = len(im.Stream) * instrWidth
	return im, nil
}

// DecodeAll expands the instruction stream back into µ-word sequences
// (P-words inline, C routines expanded) — the fetch/decode-unit model
// and the round-trip check used by the tests.
func (im *Image) DecodeAll() ([]mop.Word, error) {
	var out []mop.Word
	for _, raw := range im.Stream {
		in, err := decodeInstr(raw)
		if err != nil {
			return nil, err
		}
		switch in.Class {
		case ClassP:
			if in.Opcode >= len(im.Dict) {
				return nil, fmt.Errorf("encode: P opcode %d outside dictionary", in.Opcode)
			}
			out = append(out, im.Dict[in.Opcode])
		case ClassC:
			if in.Opcode >= len(im.CRoutines) {
				return nil, fmt.Errorf("encode: C opcode %d outside routine table", in.Opcode)
			}
			for _, wi := range im.CRoutines[in.Opcode].Words {
				out = append(out, im.Dict[wi])
			}
		case ClassS:
			return nil, fmt.Errorf("encode: S-instruction in P/C stream")
		}
	}
	return out, nil
}

// WriteHex renders the image as Verilog $readmemh-style files: the
// instruction stream and the µ-ROM dictionary (packed limbs). It is the
// load format for the generated decode unit of package hwgen.
func (im *Image) WriteHex() (instrMem, microROM string) {
	var sb strings.Builder
	sb.WriteString("// instruction memory, one 32-bit word per line\n")
	for _, w := range im.Stream {
		fmt.Fprintf(&sb, "%08x\n", w)
	}
	instrMem = sb.String()

	st := NewSymTab()
	var mb strings.Builder
	mb.WriteString("// µ-ROM dictionary, packed µ-words (limb count, then limbs)\n")
	for i := range im.Dict {
		limbs := PackWord(&im.Dict[i], st)
		fmt.Fprintf(&mb, "%02x", len(limbs))
		for _, l := range limbs {
			fmt.Fprintf(&mb, " %016x", l)
		}
		mb.WriteString("\n")
	}
	microROM = mb.String()
	return
}

// encodeInstr packs an instruction into 32 bits.
func encodeInstr(in Instr) (uint32, error) {
	if in.Opcode < 0 || in.Opcode >= 1<<30 {
		return 0, fmt.Errorf("encode: opcode %d out of range", in.Opcode)
	}
	return uint32(in.Class)<<30 | uint32(in.Opcode), nil
}

func decodeInstr(raw uint32) (Instr, error) {
	c := Class(raw >> 30)
	if c > ClassS {
		return Instr{}, fmt.Errorf("encode: bad class bits %d", c)
	}
	return Instr{Class: c, Opcode: int(raw & (1<<30 - 1))}, nil
}

// wordBitsMax is the worst-case packed µ-word size (all fields present).
func wordBitsMax() int { return maskBits + int(mop.NumFields)*fieldBits }

// dictPtrBits is the width of a dictionary index.
func dictPtrBits(entries int) int {
	bits := 1
	for 1<<bits < entries {
		bits++
	}
	return bits
}

// wordKey canonically renders a µ-word for deduplication.
func wordKey(w *mop.Word) string {
	var parts []string
	for f := mop.Field(0); f < mop.NumFields; f++ {
		if w.Ops[f] != nil {
			parts = append(parts, fmt.Sprintf("%d:%s", f, w.Ops[f]))
		}
	}
	return strings.Join(parts, ";")
}

// SymTab interns branch/call target symbols so µ-words can be bit-packed
// losslessly (sequencer operations carry a symbol index in their
// immediate field, which they do not otherwise use).
type SymTab struct {
	Syms  []string
	index map[string]int
}

// NewSymTab returns an empty symbol table.
func NewSymTab() *SymTab { return &SymTab{index: map[string]int{}} }

// Intern returns the stable index of sym.
func (st *SymTab) Intern(sym string) int {
	if i, ok := st.index[sym]; ok {
		return i
	}
	st.index[sym] = len(st.Syms)
	st.Syms = append(st.Syms, sym)
	return len(st.Syms) - 1
}

// PackWord bit-packs one µ-word into uint64 limbs (presence mask in the
// first limb, then 58-bit fields in field order). It is the bit-exact
// µ-ROM layout, and the tests' UnpackWord inverts it. Sequencer symbols
// are interned through st.
func PackWord(w *mop.Word, st *SymTab) []uint64 {
	var mask uint64
	var fields []uint64
	for f := mop.Field(0); f < mop.NumFields; f++ {
		if w.Ops[f] == nil {
			continue
		}
		mask |= 1 << uint(f)
		op := *w.Ops[f]
		if op.Sym != "" {
			op.Imm = int64(st.Intern(op.Sym))
		}
		fields = append(fields, packMOP(&op))
	}
	// Layout: limb0 = mask (8 bits) | first 56 bits of field data...
	// For simplicity each field gets its own limb (58 < 64), with the
	// mask in a leading limb. Dense enough for size accounting while
	// staying trivially invertible.
	out := make([]uint64, 0, len(fields)+1)
	out = append(out, mask)
	out = append(out, fields...)
	return out
}

// packMOP packs one µ-operation: op(6) dst(7) srcA(7) srcB(7) abs(1)
// imm(30, offset-binary ±2^29).
func packMOP(m *mop.MOP) uint64 {
	const immBias = 1 << 29
	imm := m.Imm + immBias
	if imm < 0 {
		imm = 0
	}
	if imm >= 1<<30 {
		imm = 1<<30 - 1
	}
	enc := uint64(m.Op) & 0x3f
	enc |= (uint64(m.Dst+1) & 0x7f) << 6
	enc |= (uint64(m.SrcA+1) & 0x7f) << 13
	enc |= (uint64(m.SrcB+1) & 0x7f) << 20
	if m.Abs {
		enc |= 1 << 27
	}
	enc |= uint64(imm) << 28
	return enc
}
