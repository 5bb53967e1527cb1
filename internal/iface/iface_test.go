package iface

import (
	"testing"
	"testing/quick"

	"partita/internal/ip"
	"partita/internal/kernel"
)

func pipelinedIP() *ip.IP {
	return &ip.IP{
		ID: "IPX", Name: "test filter", Funcs: []string{"fir"},
		InPorts: 2, OutPorts: 2, InRate: 4, OutRate: 4,
		Latency: 8, Pipelined: true, Area: 3,
	}
}

func shape() Shape { return Shape{NIn: 64, NOut: 64, TSW: 10000, TC: 0} }

func TestAllTypesFeasibleForSimpleIP(t *testing.T) {
	cands := Candidates(pipelinedIP(), shape(), kernel.DefaultArea())
	if len(cands) != 4 {
		t.Fatalf("candidates = %d, want 4", len(cands))
	}
	seen := map[Type]bool{}
	for _, c := range cands {
		seen[c.Type] = true
	}
	for ty := Type0; ty < NumTypes; ty++ {
		if !seen[ty] {
			t.Errorf("type %v missing", ty)
		}
	}
}

func TestType0InfeasibleForManyPorts(t *testing.T) {
	b := pipelinedIP()
	b.InPorts = 4
	if _, ok := Plan(Type0, b, shape(), kernel.DefaultArea()); ok {
		t.Error("type 0 must reject >2 in-ports")
	}
	if _, ok := Plan(Type2, b, shape(), kernel.DefaultArea()); ok {
		t.Error("type 2 must reject >2 in-ports")
	}
	if _, ok := Plan(Type1, b, shape(), kernel.DefaultArea()); !ok {
		t.Error("type 1 must accept >2 in-ports via buffers")
	}
	if _, ok := Plan(Type3, b, shape(), kernel.DefaultArea()); !ok {
		t.Error("type 3 must accept >2 in-ports via buffers")
	}
}

func TestType0InfeasibleForDifferentRates(t *testing.T) {
	b := pipelinedIP()
	b.OutRate = 8 // interpolator-style rate mismatch
	if _, ok := Plan(Type0, b, shape(), kernel.DefaultArea()); ok {
		t.Error("type 0 must reject differing in/out rates")
	}
	for _, ty := range []Type{Type1, Type2, Type3} {
		if _, ok := Plan(ty, b, shape(), kernel.DefaultArea()); !ok {
			t.Errorf("type %v should support differing rates", ty)
		}
	}
}

func TestType0SlowClock(t *testing.T) {
	fast := pipelinedIP()
	fast.InRate, fast.OutRate = 1, 1 // faster than the 4-cycle template
	c, ok := Plan(Type0, fast, shape(), kernel.DefaultArea())
	if !ok {
		t.Fatal("type 0 plan failed")
	}
	if c.ClockDiv != 4 {
		t.Errorf("ClockDiv = %d, want 4 (rate 1 → template rate 4)", c.ClockDiv)
	}
	slow := pipelinedIP()
	cSlow, _ := Plan(Type0, slow, shape(), kernel.DefaultArea())
	if cSlow.ClockDiv != 1 {
		t.Errorf("rate-4 IP should not be slow-clocked, got div %d", cSlow.ClockDiv)
	}
	// Slow-clocking inflates T_IP.
	if c.TIP <= cSlow.TIP/2 {
		t.Errorf("slow-clocked TIP = %d vs native %d: divider not applied", c.TIP, cSlow.TIP)
	}
}

func TestExecTimeEquations(t *testing.T) {
	am := kernel.DefaultArea()
	b := pipelinedIP()
	s := shape()

	c0, _ := Plan(Type0, b, s, am)
	if c0.Exec != max(c0.TIP, c0.TIF) {
		t.Errorf("type 0 exec = %d, want MAX(TIP=%d, TIF=%d)", c0.Exec, c0.TIP, c0.TIF)
	}

	s.TC = 0
	c1, _ := Plan(Type1, b, s, am)
	want := c1.TIFIn + max(c1.TIP, c1.TB) + c1.TIFOut
	if c1.Exec != want {
		t.Errorf("type 1 exec = %d, want %d", c1.Exec, want)
	}

	// With parallel code, exec shrinks by MIN(TIP, TC).
	s.TC = c1.TIP / 2
	c1p, _ := Plan(Type1, b, s, am)
	if c1p.Exec != want-s.TC {
		t.Errorf("type 1 exec with TC = %d, want %d", c1p.Exec, want-s.TC)
	}
	if c1p.TCUsed != s.TC {
		t.Errorf("TCUsed = %d, want %d", c1p.TCUsed, s.TC)
	}

	// TC larger than TIP credits only TIP.
	s.TC = c1.TIP * 3
	c1q, _ := Plan(Type1, b, s, am)
	if c1q.TCUsed != c1.TIP {
		t.Errorf("TCUsed = %d, want capped at TIP %d", c1q.TCUsed, c1.TIP)
	}
}

func TestParallelOnlyForBufferedTypes(t *testing.T) {
	s := shape()
	s.TC = 1_000_000
	am := kernel.DefaultArea()
	b := pipelinedIP()
	c0, _ := Plan(Type0, b, s, am)
	c2, _ := Plan(Type2, b, s, am)
	if c0.TCUsed != 0 || c2.TCUsed != 0 {
		t.Error("unbuffered types must not credit parallel code")
	}
	c1, _ := Plan(Type1, b, s, am)
	c3, _ := Plan(Type3, b, s, am)
	if c1.TCUsed == 0 || c3.TCUsed == 0 {
		t.Error("buffered types must credit parallel code")
	}
	if !Type1.SupportsParallel() || !Type3.SupportsParallel() || Type0.SupportsParallel() || Type2.SupportsParallel() {
		t.Error("SupportsParallel flags wrong")
	}
}

func TestAreaOrdering(t *testing.T) {
	// For a simple 2-port IP: type 0 is cheapest; buffered types cost
	// more than their unbuffered siblings.
	am := kernel.DefaultArea()
	b := pipelinedIP()
	s := shape()
	var area [4]float64
	for ty := Type0; ty < NumTypes; ty++ {
		c, ok := Plan(ty, b, s, am)
		if !ok {
			t.Fatalf("type %v infeasible", ty)
		}
		area[ty] = c.IfaceArea
	}
	if !(area[Type0] < area[Type1]) {
		t.Errorf("area IF0 (%g) should be < IF1 (%g)", area[Type0], area[Type1])
	}
	if !(area[Type2] < area[Type3]) {
		t.Errorf("area IF2 (%g) should be < IF3 (%g)", area[Type2], area[Type3])
	}
	if !(area[Type0] < area[Type3]) {
		t.Errorf("area IF0 (%g) should be < IF3 (%g)", area[Type0], area[Type3])
	}
}

func TestHardwareFasterThanSoftwareTransfer(t *testing.T) {
	am := kernel.DefaultArea()
	b := pipelinedIP()
	s := shape()
	c0, _ := Plan(Type0, b, s, am)
	c2, _ := Plan(Type2, b, s, am)
	if c2.TIF >= c0.TIF {
		t.Errorf("DMA transfer (%d) should beat software transfer (%d)", c2.TIF, c0.TIF)
	}
	c1, _ := Plan(Type1, b, s, am)
	c3, _ := Plan(Type3, b, s, am)
	if c3.TIFIn >= c1.TIFIn || c3.TIFOut >= c1.TIFOut {
		t.Errorf("FSM buffer fill/drain (%d/%d) should beat software (%d/%d)",
			c3.TIFIn, c3.TIFOut, c1.TIFIn, c1.TIFOut)
	}
}

func TestGainMonotonicInTSW(t *testing.T) {
	am := kernel.DefaultArea()
	b := pipelinedIP()
	f := func(tswRaw uint16, nRaw uint8) bool {
		s := Shape{NIn: int(nRaw%64) + 1, NOut: int(nRaw%64) + 1, TSW: int64(tswRaw)}
		c, ok := Plan(Type0, b, s, am)
		if !ok {
			return true
		}
		// Gain + Exec must equal TSW exactly, and Exec must not depend
		// on TSW.
		c2, _ := Plan(Type0, b, Shape{NIn: s.NIn, NOut: s.NOut, TSW: s.TSW + 1000}, am)
		return c.Gain+c.Exec == s.TSW && c2.Exec == c.Exec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTemplatesGenerateValidCode(t *testing.T) {
	b := pipelinedIP()
	s := shape()
	for _, ty := range []Type{Type0, Type1} {
		tmpl, err := SoftwareTemplate(ty, b, s)
		if err != nil {
			t.Fatal(err)
		}
		if tmpl.Words <= 0 {
			t.Errorf("%v template has no code", ty)
		}
		if len(tmpl.Fn.Blocks) < 3 {
			t.Errorf("%v template should have init/loop/done structure", ty)
		}
	}
	t0, _ := SoftwareTemplate(Type0, b, s)
	if t0.TransferCycles <= 0 {
		t.Error("type 0 transfer cycles not computed")
	}
	t1, _ := SoftwareTemplate(Type1, b, s)
	if t1.FillCycles <= 0 || t1.DrainCycles <= 0 {
		t.Error("type 1 fill/drain cycles not computed")
	}
}

func TestFSMGeneration(t *testing.T) {
	b := pipelinedIP()
	s := shape()
	f2, err := ControllerFSM(Type2, b, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.States) < 5 {
		t.Errorf("type 2 FSM states = %d, want >= 5", len(f2.States))
	}
	f3, _ := ControllerFSM(Type3, b, s)
	if len(f3.States) <= len(f2.States) {
		t.Errorf("type 3 FSM (%d states) should exceed type 2 (%d)", len(f3.States), len(f2.States))
	}
	if f2.String() == "" || f3.String() == "" {
		t.Error("FSM dump empty")
	}

	// Rate-mismatched IP needs split controllers → more states.
	b2 := pipelinedIP()
	b2.OutRate = 8
	f2r, _ := ControllerFSM(Type2, b2, s)
	if len(f2r.States) <= len(f2.States) {
		t.Errorf("split-rate FSM (%d) should exceed equal-rate FSM (%d)", len(f2r.States), len(f2.States))
	}
}

func TestProtocolTransformerAreaCounted(t *testing.T) {
	am := kernel.DefaultArea()
	s := shape()
	sync := pipelinedIP()
	hs := pipelinedIP()
	hs.Protocol = ip.Handshake
	cSync, _ := Plan(Type2, sync, s, am)
	cHS, _ := Plan(Type2, hs, s, am)
	if cHS.IfaceArea <= cSync.IfaceArea {
		t.Errorf("handshake PT should add area: %g vs %g", cHS.IfaceArea, cSync.IfaceArea)
	}
}

func TestSlowerIPWithParallelCodeCanWin(t *testing.T) {
	// The paper's key observation: "a slower IP with a parallel code may
	// be better than a faster IP without a parallel code."
	am := kernel.DefaultArea()
	fast := pipelinedIP()
	fast.Latency = 4
	slow := pipelinedIP()
	slow.Latency = 4
	slow.PerfFactor = 2.0

	s := Shape{NIn: 64, NOut: 64, TSW: 20000}
	cFast, _ := Plan(Type2, fast, s, am) // fast IP, unbuffered → no PC
	sPC := s
	sPC.TC = 100000 // ample parallel code
	cSlow, _ := Plan(Type3, slow, sPC, am)
	if cSlow.Gain <= cFast.Gain {
		t.Errorf("slow IP with PC gain %d should beat fast IP without PC gain %d", cSlow.Gain, cFast.Gain)
	}
}
