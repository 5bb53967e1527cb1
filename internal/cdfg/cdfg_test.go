package cdfg

import (
	"testing"

	"partita/internal/cprog"
)

func build(t *testing.T, src, fn string) (*Graph, *cprog.Info) {
	t.Helper()
	f, err := cprog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := cprog.Analyze(f)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	g, err := Build(info, fn, DefaultOptions())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return g, info
}

const dspLib = `
xmem int xin[16];
ymem int h[8];
xmem int yout[16];
ymem int spare[16];
int u;
int v;
int w;

int fir(xmem int a[], ymem int c[], xmem int o[]) {
	int i; int acc;
	acc = 0;
	for (i = 0; i < 8; i = i + 1) { acc = acc + a[i] * c[i]; o[i] = acc; }
	return acc;
}
int dct(xmem int a[], ymem int o[]) {
	int i; int s;
	s = 0;
	for (i = 0; i < 8; i = i + 1) { s = s + a[i] * i; o[i] = s; }
	return s;
}
`

func TestIndependentCodeBecomesPC(t *testing.T) {
	src := dspLib + `
int top() {
	int r;
	r = fir(xin, h, yout);
	u = v * 3 + 7;       // independent of fir: PC candidate
	w = r + 1;           // depends on fir's result
	return w + u;
}`
	g, _ := build(t, src, "top")
	if len(g.Calls) != 1 {
		t.Fatalf("calls = %d, want 1", len(g.Calls))
	}
	res := ParallelCode(g, g.Calls[0], PCOptions{})
	if res.Cost <= 0 {
		t.Fatalf("PC cost = %d, want > 0 (u=v*3+7 is independent)", res.Cost)
	}
	// The PC must not include the dependent node (which reads $ret0).
	for _, n := range res.Nodes {
		if n.Reads["$ret0"] {
			t.Errorf("PC contains node dependent on the call: %v", n)
		}
	}
}

func TestDependentCodeExcludedFromPC(t *testing.T) {
	src := dspLib + `
int top() {
	int r;
	r = fir(xin, h, yout);
	w = r + 1;
	u = w * 2;
	return u;
}`
	g, _ := build(t, src, "top")
	res := ParallelCode(g, g.Calls[0], PCOptions{})
	if res.Cost != 0 {
		t.Errorf("PC cost = %d, want 0 (everything depends on the call)", res.Cost)
	}
}

func TestMemorySideEffectsBlockPC(t *testing.T) {
	// fir writes yout; a later read of yout is dependent even without
	// using the scalar result.
	src := dspLib + `
int top() {
	int r;
	r = fir(xin, h, yout);
	u = yout[0] + 1;
	return u + r;
}`
	g, _ := build(t, src, "top")
	res := ParallelCode(g, g.Calls[0], PCOptions{})
	if res.Cost != 0 {
		t.Errorf("PC cost = %d, want 0 (yout is written by fir)", res.Cost)
	}
}

// TestParallelCodeFourPaths reproduces the shape of the paper's Fig. 8:
// four execution paths after fir(); the guaranteed PC is the shortest
// across paths.
func TestParallelCodeFourPaths(t *testing.T) {
	src := dspLib + `
int top(int mode1, int mode2) {
	int r;
	r = fir(xin, h, yout);
	if (mode1 > 0) {
		if (mode2 > 0) {
			u = v + 1;     // P1: tiny independent code
		} else {
			u = v * v + v; // P2
		}
	} else {
		u = v * v * v * v + v * v + v + 5; // P3/P4 larger
	}
	return r + u;
}`
	g, _ := build(t, src, "top")
	res := ParallelCode(g, g.Calls[0], PCOptions{})
	// Branch code is in different scopes than the call, so candidate PC
	// nodes come only from the call's own branch level. The "cond"
	// evaluation nodes read mode1/mode2, independent of fir.
	if len(res.PerPath) < 3 {
		t.Fatalf("paths containing the call = %d, want >= 3", len(res.PerPath))
	}
	min := res.PerPath[0]
	for _, c := range res.PerPath {
		if c < min {
			min = c
		}
	}
	if res.Cost != min {
		t.Errorf("PC cost = %d, want min across paths %d (per-path %v)", res.Cost, min, res.PerPath)
	}
}

func TestScopeRestrictsPC(t *testing.T) {
	// Independent code inside a conditional cannot be the PC of a call
	// outside it (different execution branch).
	src := dspLib + `
int top(int mode) {
	int r;
	r = fir(xin, h, yout);
	if (mode > 0) {
		u = v * 3; // independent but in another branch
	}
	return r;
}`
	g, _ := build(t, src, "top")
	res := ParallelCode(g, g.Calls[0], PCOptions{})
	for _, n := range res.Nodes {
		if n.Writes["u"] {
			t.Errorf("PC includes node from another execution branch: %v", n)
		}
	}
}

func TestProblem2AllowsSCallInPC(t *testing.T) {
	// Three independent fir-like calls on disjoint arrays: under
	// Problem 1 the PC of the first call is empty-ish; under Problem 2 it
	// may contain the software body of another s-call (Fig. 9).
	src := dspLib + `
xmem int a2[16];
ymem int h2[8];
xmem int o2[16];
int top() {
	int r1; int r2;
	r1 = fir(xin, h, yout);
	r2 = fir(a2, h2, o2);
	return r1 + r2;
}`
	g, _ := build(t, src, "top")
	if len(g.Calls) != 2 {
		t.Fatalf("calls = %d, want 2", len(g.Calls))
	}
	p1 := ParallelCode(g, g.Calls[0], PCOptions{AllowSCalls: false})
	p2 := ParallelCode(g, g.Calls[0], PCOptions{AllowSCalls: true})
	if len(p1.SCallNodes) != 0 {
		t.Errorf("Problem 1 PC contains s-calls: %v", p1.SCallNodes)
	}
	if len(p2.SCallNodes) != 1 || p2.SCallNodes[0].Name != "fir" {
		t.Fatalf("Problem 2 PC s-calls = %v, want the second fir", p2.SCallNodes)
	}
	if p2.Cost <= p1.Cost {
		t.Errorf("Problem 2 PC (%d) should exceed Problem 1 PC (%d)", p2.Cost, p1.Cost)
	}
}

func TestNonSCallCallsMayBePC(t *testing.T) {
	src := dspLib + `
int helper(int k) { return k * 3 + 1; }
int top() {
	int r1; int r2;
	r1 = fir(xin, h, yout);
	r2 = helper(5);
	return r1 + r2;
}`
	g, _ := build(t, src, "top")
	isSC := func(name string) bool { return name == "fir" || name == "dct" }
	res := ParallelCode(g, g.Calls[0], PCOptions{IsSCall: isSC})
	foundHelper := false
	for _, n := range res.Nodes {
		if n.Kind == NodeCall && n.Name == "helper" {
			foundHelper = true
		}
	}
	if !foundHelper {
		t.Error("helper() call should be usable as parallel code under Problem 1")
	}
	if len(res.SCallNodes) != 0 {
		t.Errorf("SCallNodes = %v, want none", res.SCallNodes)
	}
}

func TestCallsInsideLoopsHaveFreq(t *testing.T) {
	src := dspLib + `
int top() {
	int i; int acc;
	acc = 0;
	for (i = 0; i < 6; i = i + 1) {
		acc = acc + fir(xin, h, yout);
	}
	return acc;
}`
	g, _ := build(t, src, "top")
	if len(g.Calls) != 1 {
		t.Fatalf("calls = %d", len(g.Calls))
	}
	if g.Calls[0].Freq != 6 {
		t.Errorf("call freq = %d, want 6 (static trip count)", g.Calls[0].Freq)
	}
}

func TestTripCountDetection(t *testing.T) {
	cases := []struct {
		hdr   string
		trips int64
	}{
		{"for (i = 0; i < 10; i = i + 1)", 10},
		{"for (i = 0; i <= 10; i = i + 1)", 11},
		{"for (i = 2; i < 10; i = i + 2)", 4},
		{"for (i = 0; i < 7; i = i + 2)", 4},
		{"for (i = 10; i > 0; i = i - 1)", 10},
		{"for (i = 0; i < n; i = i + 1)", 8}, // dynamic → default
	}
	for _, c := range cases {
		src := dspLib + `
int top(int n) {
	int i; int s;
	s = 0;
	` + c.hdr + ` { s = s + fir(xin, h, yout); }
	return s;
}`
		g, _ := build(t, src, "top")
		if g.Calls[0].Freq != c.trips {
			t.Errorf("%s: freq = %d, want %d", c.hdr, g.Calls[0].Freq, c.trips)
		}
	}
}

// softwareCost is the pure-software cycle estimate of one invocation of
// fn (the T_SW of the paper's gain equations), read through the
// builder's funcCost.
func softwareCost(info *cprog.Info, fn string) int64 {
	b := &builder{info: info, opt: DefaultOptions(), summaries: map[string]*Summary{}, swCost: map[string]int64{}}
	return b.funcCost(fn)
}

// summarize is fn's effect summary: the globals it touches and the
// parameters it reads and writes, transitively through its callees.
func summarize(info *cprog.Info, fn string) *Summary {
	b := &builder{info: info, summaries: map[string]*Summary{}, swCost: map[string]int64{}}
	return b.summary(fn)
}

// pathCost sums a path's Freq-weighted node costs: the software time of
// one run of the function down that path.
func pathCost(p Path) int64 {
	var t int64
	for _, n := range p {
		t += n.Cost * n.Freq
	}
	return t
}

func TestSoftwareCostScalesWithWork(t *testing.T) {
	f, err := cprog.Parse(dspLib + "int top() { return fir(xin, h, yout); }")
	if err != nil {
		t.Fatal(err)
	}
	info, err := cprog.Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	cFir, cTop := softwareCost(info, "fir"), softwareCost(info, "top")
	if cFir <= 0 {
		t.Fatalf("fir cost = %d", cFir)
	}
	if cTop <= cFir {
		t.Errorf("top (%d) should cost more than its callee fir (%d)", cTop, cFir)
	}
}

func TestSummaries(t *testing.T) {
	_, info := build(t, dspLib+`int top() { return fir(xin, h, yout); }`, "top")
	s := summarize(info, "fir")
	if !s.ParamRead[0] || !s.ParamRead[1] {
		t.Errorf("fir should read params 0 and 1: %+v", s)
	}
	if !s.ParamWrite[2] {
		t.Errorf("fir should write param 2: %+v", s)
	}
	if s.ParamWrite[0] {
		t.Errorf("fir must not write param 0: %+v", s)
	}

	// Transitive: top reads/writes globals through fir's args.
	st := summarize(info, "top")
	if !st.ReadsGlobals["xin"] || !st.WritesGlobals["yout"] {
		t.Errorf("top summary = reads %v writes %v", st.ReadsGlobals, st.WritesGlobals)
	}
}

func TestPathEnumeration(t *testing.T) {
	src := dspLib + `
int top(int m1, int m2) {
	int r;
	r = 0;
	if (m1 > 0) { r = fir(xin, h, yout); } else { r = dct(xin, spare); }
	if (m2 > 0) { u = 1; } else { u = 2; }
	return r + u;
}`
	g, _ := build(t, src, "top")
	paths := g.Paths(64)
	if len(paths) != 4 {
		t.Fatalf("paths = %d, want 4 (2 branches × 2 branches)", len(paths))
	}
	demand := g.PathGainDemand(64)
	// Every path carries exactly one of the two calls.
	for i, calls := range demand {
		if len(calls) != 1 {
			t.Errorf("path %d has %d calls, want 1", i, len(calls))
		}
	}
	for _, p := range paths {
		if pathCost(p) <= 0 {
			t.Error("path with non-positive cost")
		}
	}
}

func TestDepClosureTransitivity(t *testing.T) {
	// a writes x; b reads x writes y; c reads y. a→b→c implies a→c.
	mk := func(name string, reads, writes []string) *Node {
		n := &Node{Name: name, Reads: map[string]bool{}, Writes: map[string]bool{}, Freq: 1}
		for _, r := range reads {
			n.Reads[r] = true
		}
		for _, w := range writes {
			n.Writes[w] = true
		}
		return n
	}
	a := mk("a", nil, []string{"x"})
	b := mk("b", []string{"x"}, []string{"y"})
	c := mk("c", []string{"y"}, nil)
	d := mk("d", []string{"z"}, nil)
	clo := DepClosure(Path{a, b, c, d})
	if !clo.Reaches(0, 1) || !clo.Reaches(1, 2) {
		t.Fatal("direct edges missing")
	}
	if !clo.Reaches(0, 2) {
		t.Error("transitive edge a→c missing")
	}
	if clo.Reaches(0, 3) || !clo.Independent(1, 3) {
		t.Error("d should be independent of the chain")
	}
}

func TestMaxStaticTrips(t *testing.T) {
	src := dspLib + `
int top(int n) {
	int i; int j; int s;
	s = 0;
	for (i = 0; i < 48; i = i + 1) {
		for (j = 0; j < 16; j = j + 1) { s = s + j; }
	}
	while (s > 0) { s = s - 1; }
	return s;
}`
	_, info := build(t, src, "top")
	got, err := MaxStaticTrips(info, "top", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got != 48 {
		t.Errorf("MaxStaticTrips = %d, want 48 (largest single loop)", got)
	}
	if _, err := MaxStaticTrips(info, "nope", DefaultOptions()); err == nil {
		t.Error("unknown function accepted")
	}
}

func TestGraphString(t *testing.T) {
	g, _ := build(t, dspLib+`int top() { return fir(xin, h, yout); }`, "top")
	if s := g.String(); s == "" {
		t.Error("empty graph dump")
	}
}
