package apps

import (
	"testing"

	"partita/internal/kernel"
	"partita/internal/mop"
	"partita/internal/profile"
)

// TestMiniCFIRMatchesGoldenDSP runs the GSM encoder workload on the MOP
// interpreter and cross-checks the weighting-filter output array against
// goldenFIR, a fixed-point reference written in Go — the two
// independently written stacks must agree bit-exactly.
func TestMiniCFIRMatchesGoldenDSP(t *testing.T) {
	b := buildWorkload(t, GSMEncoderWorkload, false)
	m := profile.New(b.Prog, b.Layout, kernel.DefaultCost())
	if _, err := m.Run(b.Workload.Entry); err != nil {
		t.Fatal(err)
	}

	// Pull the machine's arrays out of data memory.
	read := func(name string, n int) []int64 {
		loc, ok := b.Layout.Loc("", name)
		if !ok {
			loc, ok = b.Layout.Globals[name], true
		}
		vals, err := m.ReadArray(loc.Bank, loc.Base, n)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		return vals
	}
	speech := read("speech", 40)
	emph := read("emph", 40)
	wcoef := read("wcoef", 8)
	wout := read("wout", 40)

	// Golden pre-emphasis: out[i] = in[i] − (28180·in[i−1])>>15.
	goldEmph := make([]int64, 40)
	goldEmph[0] = speech[0]
	for i := 1; i < 40; i++ {
		goldEmph[i] = speech[i] - (28180*speech[i-1])>>15
	}
	for i := range goldEmph {
		if emph[i] != goldEmph[i] {
			t.Fatalf("emph[%d]: interpreter %d vs golden %d", i, emph[i], goldEmph[i])
		}
	}

	goldOut := goldenFIR(goldEmph, wcoef)
	if len(goldOut) != 33 { // 40 − 8 + 1
		t.Fatalf("golden FIR produced %d samples, want 33", len(goldOut))
	}
	for i := range goldOut {
		if wout[i] != goldOut[i] {
			t.Fatalf("wout[%d]: interpreter %d vs golden FIR %d", i, wout[i], goldOut[i])
		}
	}
}

// goldenFIR is the Q15 FIR filter the GSM encoder's weighting filter
// computes: out[i] = (Σ_j coef[j]·in[i+j]) >> 15 for each i at which the
// whole coefficient window fits in the input.
func goldenFIR(in, coef []int64) []int64 {
	out := make([]int64, len(in)-len(coef)+1)
	for i := range out {
		var acc int64
		for j, c := range coef {
			acc += in[i+j] * c
		}
		out[i] = acc >> 15
	}
	return out
}

// TestAsmRoundTripOnWorkloads asserts the assembler round-trips the
// compiled output of every workload: String → ParseAsm → String is a
// fixed point and the re-parsed program executes identically.
func TestAsmRoundTripOnWorkloads(t *testing.T) {
	gens := []func() (Workload, error){
		GSMEncoderWorkload, GSMDecoderWorkload, JPEGEncoderWorkload, JPEGDecoderWorkload,
	}
	for _, gen := range gens {
		b := buildWorkloadFrom(t, gen)
		text := b.Prog.String()
		p2, err := mop.ParseAsm("entry " + b.Prog.Entry + "\n" + text)
		if err != nil {
			t.Fatalf("%s: re-parse: %v", b.Workload.Name, err)
		}
		if p2.String() != text {
			t.Fatalf("%s: assembler round trip diverged", b.Workload.Name)
		}
		m1 := profile.New(b.Prog, b.Layout, kernel.DefaultCost())
		r1, err := m1.Run(b.Workload.Entry)
		if err != nil {
			t.Fatal(err)
		}
		m2 := profile.New(p2, b.Layout, kernel.DefaultCost())
		r2, err := m2.Run(b.Workload.Entry)
		if err != nil {
			t.Fatal(err)
		}
		if r1 != r2 {
			t.Fatalf("%s: reassembled program computes %d, original %d", b.Workload.Name, r2, r1)
		}
	}
}

func buildWorkloadFrom(t *testing.T, gen func() (Workload, error)) *Built {
	t.Helper()
	w, err := gen()
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMiniCZigZagMatchesGolden cross-checks the JPEG workload's zig-zag
// scan against goldenZigZag.
func TestMiniCZigZagMatchesGolden(t *testing.T) {
	b := buildWorkload(t, JPEGEncoderWorkload, false)
	m := profile.New(b.Prog, b.Layout, kernel.DefaultCost())
	if _, err := m.Run(b.Workload.Entry); err != nil {
		t.Fatal(err)
	}
	read := func(name string, n int) []int64 {
		loc := b.Layout.Globals[name]
		vals, err := m.ReadArray(loc.Bank, loc.Base, n)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		return vals
	}
	freq := read("freq", 64)
	scan := read("scan", 64)

	gold := goldenZigZag(freq, 8)
	for i := range gold {
		if scan[i] != gold[i] {
			t.Fatalf("scan[%d]: interpreter %d vs golden zig-zag %d", i, scan[i], gold[i])
		}
	}
}

// goldenZigZag reads the row-major n×n block in JPEG zig-zag order: each
// anti-diagonal s in turn, walking up-right when s is even and down-left
// when it is odd.
func goldenZigZag(block []int64, n int) []int64 {
	out := make([]int64, 0, n*n)
	for s := 0; s < 2*n-1; s++ {
		if s%2 == 0 {
			for r, c := min(s, n-1), s-min(s, n-1); r >= 0 && c < n; r, c = r-1, c+1 {
				out = append(out, block[r*n+c])
			}
		} else {
			for c, r := min(s, n-1), s-min(s, n-1); c >= 0 && r < n; r, c = r+1, c-1 {
				out = append(out, block[r*n+c])
			}
		}
	}
	return out
}
