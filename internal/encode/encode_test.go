package encode

import (
	"fmt"
	"testing"
	"testing/quick"

	"partita/internal/cinstr"
	"partita/internal/cprog"
	"partita/internal/lower"
	"partita/internal/mop"
)

func compiled(t *testing.T, src string) *mop.Program {
	t.Helper()
	f, err := cprog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := cprog.Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := lower.Compile(info)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

const loopSrc = `
int a; int b; int c;
int main() {
	int i;
	for (i = 0; i < 10; i = i + 1) { a = a + 1; }
	for (i = 0; i < 10; i = i + 1) { b = b + 1; }
	for (i = 0; i < 10; i = i + 1) { c = c + 1; }
	return a + b + c;
}`

func TestBuildAndRoundTrip(t *testing.T) {
	prog := compiled(t, loopSrc)
	cs := cinstr.Mine(prog, nil, cinstr.Config{}).Chosen
	im, err := Build(prog, cs, []string{"fir_accel"})
	if err != nil {
		t.Fatal(err)
	}
	if im.TotalWords <= 0 || im.UniqueWords <= 0 {
		t.Fatalf("bad stats: %+v", im)
	}
	if im.UniqueWords > im.TotalWords {
		t.Errorf("dictionary (%d) larger than program (%d)", im.UniqueWords, im.TotalWords)
	}
	if im.Compression() > 1 {
		t.Errorf("dictionary made the µ-ROM bigger: %.2f", im.Compression())
	}
	if len(im.SRoutines) != 1 || im.SRoutines[0].Name != "fir_accel" {
		t.Errorf("S routines = %+v", im.SRoutines)
	}

	// Round trip: decoding the stream must reproduce the exact packed
	// µ-word sequence of the program.
	var want []string
	for _, f := range prog.SortedFuncs() {
		for _, blk := range f.Blocks {
			for _, w := range mop.PackBlock(blk.Ops) {
				want = append(want, w.String())
			}
		}
	}
	got, err := im.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d words, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].String() != want[i] {
			t.Fatalf("word %d: decoded %s, want %s", i, got[i].String(), want[i])
		}
	}
}

func TestCInstructionsShrinkStream(t *testing.T) {
	prog := compiled(t, loopSrc)
	cs := cinstr.Mine(prog, nil, cinstr.Config{}).Chosen
	if len(cs) == 0 {
		t.Skip("no repetition found (lowering changed)")
	}
	plain, err := Build(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	withC, err := Build(prog, cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(withC.Stream) >= len(plain.Stream) {
		t.Errorf("C-instructions did not shrink the stream: %d vs %d",
			len(withC.Stream), len(plain.Stream))
	}
	// Both must decode to the same µ-word sequence.
	a, err := plain.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	b, err := withC.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("decode lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("word %d differs after C-compression", i)
		}
	}
}

func TestInstrEncodingRoundTrip(t *testing.T) {
	for _, in := range []Instr{
		{ClassP, 0}, {ClassP, 1023}, {ClassC, 7}, {ClassS, 3},
	} {
		raw, err := encodeInstr(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeInstr(raw)
		if err != nil {
			t.Fatal(err)
		}
		if got != in {
			t.Errorf("roundtrip %+v → %+v", in, got)
		}
	}
}

func TestPackWordRoundTrip(t *testing.T) {
	st := NewSymTab()
	words := []mop.Word{
		{}, // empty (nop) word
	}
	w1 := mop.Word{}
	add := mop.MOP{Op: mop.ADD, Dst: mop.GPR(3), SrcA: mop.GPR(1), SrcB: mop.GPR(2)}
	ld := mop.MOP{Op: mop.LDX, Dst: mop.GPR(4), SrcA: mop.AX(0), Imm: 1}
	w1.Ops[mop.FieldALU] = &add
	w1.Ops[mop.FieldXMem] = &ld
	words = append(words, w1)

	w2 := mop.Word{}
	br := mop.MOP{Op: mop.BNE, Sym: "loop_head"}
	ldi := mop.MOP{Op: mop.LDI, Dst: mop.GPR(0), Imm: -123456}
	w2.Ops[mop.FieldSeq] = &br
	w2.Ops[mop.FieldMove] = &ldi
	words = append(words, w2)

	w3 := mop.Word{}
	ret := mop.MOP{Op: mop.RET}
	w3.Ops[mop.FieldSeq] = &ret
	words = append(words, w3)

	for i, w := range words {
		limbs := PackWord(&w, st)
		got, err := UnpackWord(limbs, st)
		if err != nil {
			t.Fatalf("word %d: %v", i, err)
		}
		if got.String() != w.String() {
			t.Errorf("word %d: %s → %s", i, w.String(), got.String())
		}
	}
}

func TestPackMOPRoundTripQuick(t *testing.T) {
	f := func(op uint8, dst, a, b int8, imm int32, abs bool) bool {
		m := &mop.MOP{
			Op:   mop.Opcode(int(op) % 30),
			Dst:  mop.Reg(int(dst)%mop.NumRegs + -1), // includes RegNone
			SrcA: mop.Reg(int(a) % mop.NumRegs),
			SrcB: mop.Reg(int(b) % mop.NumRegs),
			// The packed immediate field is 30 bits (offset-binary), so
			// constrain the generator to the representable range.
			Imm: int64(imm % (1 << 28)),
			Abs: abs,
		}
		if m.Dst < -1 {
			m.Dst = mop.RegNone
		}
		if m.SrcA < 0 {
			m.SrcA = -m.SrcA
		}
		if m.SrcB < 0 {
			m.SrcB = -m.SrcB
		}
		enc := packMOP(m)
		got, err := unpackMOP(enc)
		if err != nil {
			return false
		}
		return got.Op == m.Op && got.Dst == m.Dst && got.SrcA == m.SrcA &&
			got.SrcB == m.SrcB && got.Imm == m.Imm && got.Abs == m.Abs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWriteHex(t *testing.T) {
	im := func() *Image {
		prog := compiled(t, loopSrc)
		cs := cinstr.Mine(prog, nil, cinstr.Config{}).Chosen
		im, err := Build(prog, cs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return im
	}()
	instr, urom := im.WriteHex()
	instrLines := nonComment(instr)
	if len(instrLines) != len(im.Stream) {
		t.Errorf("instr hex has %d lines, want %d", len(instrLines), len(im.Stream))
	}
	for _, l := range instrLines {
		if len(l) != 8 {
			t.Errorf("instruction line %q not 8 hex digits", l)
		}
	}
	uromLines := nonComment(urom)
	if len(uromLines) != im.UniqueWords {
		t.Errorf("µ-ROM hex has %d lines, want %d", len(uromLines), im.UniqueWords)
	}
}

func nonComment(s string) []string {
	var out []string
	for _, l := range splitLines(s) {
		if l == "" || l[0] == '/' {
			continue
		}
		out = append(out, l)
	}
	return out
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func TestSymTab(t *testing.T) {
	st := NewSymTab()
	a := st.Intern("alpha")
	b := st.Intern("beta")
	if a == b {
		t.Error("distinct symbols share an index")
	}
	if again := st.Intern("alpha"); again != a {
		t.Error("re-interning changed the index")
	}
	if s, ok := st.Lookup(b); !ok || s != "beta" {
		t.Errorf("Lookup(%d) = %q, %v", b, s, ok)
	}
	if _, ok := st.Lookup(99); ok {
		t.Error("out-of-range lookup succeeded")
	}
}

func TestBuildErrors(t *testing.T) {
	prog := compiled(t, loopSrc)
	bad := []*cinstr.CInstr{{ID: "C0", Len: 2}}
	if _, err := Build(prog, bad, nil); err == nil {
		t.Error("C-instruction without sites accepted")
	}
	bad = []*cinstr.CInstr{{ID: "C0", Len: 2, Sites: []cinstr.Site{{Fn: "nope", Block: "x"}}}}
	if _, err := Build(prog, bad, nil); err == nil {
		t.Error("unknown function accepted")
	}
}

// Lookup returns the symbol at index i.
func (st *SymTab) Lookup(i int) (string, bool) {
	if i < 0 || i >= len(st.Syms) {
		return "", false
	}
	return st.Syms[i], true
}

// UnpackWord inverts PackWord, resolving sequencer symbols through st.
func UnpackWord(limbs []uint64, st *SymTab) (mop.Word, error) {
	var w mop.Word
	if len(limbs) == 0 {
		return w, fmt.Errorf("encode: empty µ-word")
	}
	mask := limbs[0]
	li := 1
	for f := mop.Field(0); f < mop.NumFields; f++ {
		if mask&(1<<uint(f)) == 0 {
			continue
		}
		if li >= len(limbs) {
			return w, fmt.Errorf("encode: truncated µ-word")
		}
		op, err := unpackMOP(limbs[li])
		if err != nil {
			return w, err
		}
		if f == mop.FieldSeq && op.Op != mop.RET {
			sym, ok := st.Lookup(int(op.Imm))
			if !ok {
				return w, fmt.Errorf("encode: symbol index %d out of range", op.Imm)
			}
			op.Sym = sym
			op.Imm = 0
		}
		w.Ops[f] = op
		li++
	}
	return w, nil
}

// unpackMOP inverts packMOP.
func unpackMOP(enc uint64) (*mop.MOP, error) {
	const immBias = 1 << 29
	m := &mop.MOP{}
	m.Op = mop.Opcode(enc & 0x3f)
	m.Dst = mop.Reg(int64(enc>>6&0x7f) - 1)
	m.SrcA = mop.Reg(int64(enc>>13&0x7f) - 1)
	m.SrcB = mop.Reg(int64(enc>>20&0x7f) - 1)
	m.Abs = enc>>27&1 == 1
	m.Imm = int64(enc>>28) - immBias
	return m, nil
}
