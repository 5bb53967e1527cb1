package kernel

import (
	"testing"

	"partita/internal/mop"
)

func TestBlockCyclesCountsWordsAndDivStalls(t *testing.T) {
	c := DefaultCost()
	ops := []mop.MOP{
		{Op: mop.LDI, Dst: mop.GPR(0), Imm: 6},
		{Op: mop.LDI, Dst: mop.GPR(1), Imm: 2},
		{Op: mop.DIV, Dst: mop.GPR(2), SrcA: mop.GPR(0), SrcB: mop.GPR(1)},
	}
	// Words: {ldi r0}, {ldi r1}, {div} → move field holds one LDI per word,
	// so 2 LDI words, then DIV depends on both.
	words := mop.PackBlock(ops)
	want := int64(len(words))*c.WordCycles + c.DivExtra
	if got := c.BlockCycles(ops); got != want {
		t.Errorf("BlockCycles = %d, want %d", got, want)
	}
}

func TestDefaultsSane(t *testing.T) {
	if c := DefaultCost(); c.WordCycles <= 0 {
		t.Errorf("bad cost model: %+v", c)
	}
	a := DefaultArea()
	if a.PerCodeWord <= 0 || a.PerFSMState <= 0 || a.PerBufferWord <= 0 {
		t.Errorf("bad area model: %+v", a)
	}
	// Hardware FSM state must cost more than a code word: the tables show
	// type-2 interfaces slightly above type-0.
	if a.PerFSMState <= a.PerCodeWord {
		t.Error("FSM state should cost more than a µ-code word")
	}
}
