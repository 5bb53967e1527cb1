package portfolio

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"partita/internal/apps"
	"partita/internal/budget"
	"partita/internal/iface"
	"partita/internal/ilp"
	"partita/internal/imp"
	"partita/internal/ip"
	"partita/internal/selector"
)

func mkIP(id string, area float64) *ip.IP {
	return &ip.IP{ID: id, Name: id, Funcs: []string{"f"}, InPorts: 1, OutPorts: 1,
		InRate: 1, OutRate: 1, Latency: 1, Pipelined: true, Area: area}
}

// assertSettledMatchesExact compares a gap-0 settled race against the
// cold exact solve of the same problem: identical status, and for
// solved instances identical area (byte for byte), gain, and
// S-instruction count.
func assertSettledMatchesExact(t *testing.T, tag string, res *Result, ref *selector.Selection) {
	t.Helper()
	if res.Sel.Status != ref.Status {
		t.Fatalf("%s: settled status %v, exact %v", tag, res.Sel.Status, ref.Status)
	}
	if ref.Status != ilp.Optimal {
		return
	}
	if res.Sel.Area != ref.Area {
		t.Fatalf("%s: settled area %v, exact %v", tag, res.Sel.Area, ref.Area)
	}
	if res.Sel.Gain != ref.Gain {
		t.Fatalf("%s: settled gain %d, exact %d", tag, res.Sel.Gain, ref.Gain)
	}
	if res.Sel.SInstructions != ref.SInstructions {
		t.Fatalf("%s: settled S %d, exact %d", tag, res.Sel.SInstructions, ref.SInstructions)
	}
	if res.Gap != 0 {
		t.Fatalf("%s: settled gap %g, want 0", tag, res.Gap)
	}
}

// TestPortfolioEquivalenceGolden races the paper's GSM and JPEG tables
// at gap 0 across the requirement band; the settled answer must be the
// exact optimum, byte for byte.
func TestPortfolioEquivalenceGolden(t *testing.T) {
	tables := []struct {
		name  string
		build func() (*imp.DB, []apps.TableRow, error)
	}{
		{"gsm", apps.GSMEncoderTable},
		{"jpeg", apps.JPEGEncoderTable},
	}
	for _, tb := range tables {
		db, _, err := tb.build()
		if err != nil {
			t.Fatalf("%s: %v", tb.name, err)
		}
		an := selector.NewAnalysis(db)
		for _, frac := range []int64{10, 30, 50, 70, 90} {
			p := selector.Problem{Required: an.MaxGain() * frac / 100}
			ref, err := an.Solve(context.Background(), p)
			if err != nil {
				t.Fatalf("%s rg=%d: exact: %v", tb.name, p.Required, err)
			}
			res, err := Run(context.Background(), an, p, nil, Config{Gap: 0})
			if err != nil {
				t.Fatalf("%s rg=%d: portfolio: %v", tb.name, p.Required, err)
			}
			tag := fmt.Sprintf("%s rg=%d", tb.name, p.Required)
			assertSettledMatchesExact(t, tag, res, ref)
			if res.First.Sel == nil {
				t.Fatalf("%s: no first answer recorded", tag)
			}
			if res.First.Elapsed > res.Settled {
				t.Errorf("%s: first at %v after settle %v", tag, res.First.Elapsed, res.Settled)
			}
		}
	}
}

// fuzzDB builds one seeded synthetic selection instance: a handful of
// s-calls, shared IPs, mixed interface types, occasional parallel-code
// methods with conflicts.
func fuzzDB(t *testing.T, rng *rand.Rand) *imp.DB {
	t.Helper()
	nSC := 2 + rng.Intn(4)
	funcs := make([]string, nSC)
	for i := range funcs {
		funcs[i] = fmt.Sprintf("f%d", i)
	}
	nIP := 2 + rng.Intn(3)
	ips := make([]*ip.IP, nIP)
	for i := range ips {
		ips[i] = mkIP(fmt.Sprintf("IP%d", i), float64(1+rng.Intn(20)))
	}
	types := []iface.Type{iface.Type0, iface.Type1, iface.Type2, iface.Type3}
	var specs []imp.SynthIMP
	for sc := 1; sc <= nSC; sc++ {
		for j := 0; j < 1+rng.Intn(3); j++ {
			s := imp.SynthIMP{
				SC:        sc,
				IP:        ips[rng.Intn(nIP)],
				Type:      types[rng.Intn(len(types))],
				Gain:      int64(50 + rng.Intn(200)),
				IfaceArea: float64(rng.Intn(5)),
			}
			if rng.Intn(5) == 0 && nSC > 1 {
				s.UsesPC = true
				pc := 1 + rng.Intn(nSC)
				if pc != sc {
					s.PCOf = []int{pc}
				}
			}
			specs = append(specs, s)
		}
	}
	db, err := imp.NewSyntheticDB(funcs, specs)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestPortfolioFuzzCorpusEquivalence is the portfolio arm of the
// equivalence fuzz corpus: 20 seeded synthetic instances, three
// requirement points each, gap 0 — the settled
// answer must match the exact solve exactly (including infeasible
// instances).
func TestPortfolioFuzzCorpusEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	solved := 0
	for c := 0; c < 20; c++ {
		db := fuzzDB(t, rng)
		an := selector.NewAnalysis(db)
		for _, frac := range []int64{30, 60, 95} {
			p := selector.Problem{Required: an.MaxGain() * frac / 100}
			ref, err := an.Solve(context.Background(), p)
			if err != nil {
				t.Fatalf("corpus %d rg=%d: exact: %v", c, p.Required, err)
			}
			res, err := Run(context.Background(), an, p, nil, Config{Gap: 0})
			if err != nil {
				t.Fatalf("corpus %d rg=%d: portfolio: %v", c, p.Required, err)
			}
			assertSettledMatchesExact(t, fmt.Sprintf("corpus %d rg=%d", c, p.Required), res, ref)
			if ref.Status == ilp.Optimal {
				solved++
			}
		}
	}
	if solved < 10 {
		t.Fatalf("only %d corpus points solved Optimal; corpus too degenerate to be meaningful", solved)
	}
}

// TestPortfolioInfeasibleProof: a requirement beyond the reachable
// maximum settles as a proven Infeasible with gap 0, and the first
// answer is that proof.
func TestPortfolioInfeasibleProof(t *testing.T) {
	db, _, err := apps.GSMEncoderTable()
	if err != nil {
		t.Fatal(err)
	}
	an := selector.NewAnalysis(db)
	res, err := Run(context.Background(), an,
		selector.Problem{Required: an.MaxGain() + 1}, nil, Config{Gap: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sel.Status != ilp.Infeasible {
		t.Fatalf("status = %v, want Infeasible", res.Sel.Status)
	}
	if res.Gap != 0 || res.First.Sel.Status != ilp.Infeasible {
		t.Errorf("gap = %g, first = %v; want a settled infeasibility proof", res.Gap, res.First.Sel.Status)
	}
	if !res.Confirmed {
		t.Error("infeasibility proof not marked Confirmed")
	}
}

// TestPortfolioOnFirstOnce: the first-acceptable callback fires exactly
// once per race, with a selection consistent with the recorded First.
func TestPortfolioOnFirstOnce(t *testing.T) {
	db, _, err := apps.GSMEncoderTable()
	if err != nil {
		t.Fatal(err)
	}
	an := selector.NewAnalysis(db)
	for i := 0; i < 5; i++ {
		var fired atomic.Int32
		var got Answer
		res, err := Run(context.Background(), an,
			selector.Problem{Required: an.MaxGain() / 2}, nil, Config{
				Gap: 0.25,
				OnFirst: func(a Answer) {
					fired.Add(1)
					got = a
				},
			})
		if err != nil {
			t.Fatal(err)
		}
		if n := fired.Load(); n != 1 {
			t.Fatalf("run %d: OnFirst fired %d times", i, n)
		}
		if got.Sel == nil || got.Engine != res.First.Engine || got.Sel.Area != res.First.Sel.Area {
			t.Fatalf("run %d: callback answer %+v disagrees with recorded First %+v", i, got, res.First)
		}
		if res.First.Gap > 0.25 {
			t.Errorf("run %d: first answer gap %g exceeds threshold", i, res.First.Gap)
		}
	}
}

// TestPortfolioConfirmedOnProof: at a loose gap the race still settles
// on the exact proof, and when the first answer already had the optimal
// area the proof confirms it.
func TestPortfolioConfirmedOnProof(t *testing.T) {
	db, _, err := apps.GSMEncoderTable()
	if err != nil {
		t.Fatal(err)
	}
	an := selector.NewAnalysis(db)
	rg := an.MaxGain() / 3
	res, err := Run(context.Background(), an, selector.Problem{Required: rg}, nil, Config{Gap: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sel.Exact() {
		t.Fatalf("settled result not exact: %v (gap %g)", res.Sel.Status, res.Gap)
	}
	want := math.Abs(res.First.Sel.Area-res.Sel.Area) <= 1e-9
	if res.Confirmed != want {
		t.Errorf("Confirmed = %v, first area %v vs optimal %v", res.Confirmed, res.First.Sel.Area, res.Sel.Area)
	}
}

// TestReselectMatchesCold drives an edit chain — IP area, method gain,
// then a requirement change — through Reselect with the previous
// selection as the seed candidate, and checks every settled answer
// against a cold exact solve of the same edited problem: zero
// correctness drift, and the parent analysis is never mutated.
func TestReselectMatchesCold(t *testing.T) {
	db, _, err := apps.GSMEncoderTable()
	if err != nil {
		t.Fatal(err)
	}
	base := selector.NewAnalysis(db)
	rg := base.MaxGain() / 2
	p := selector.Problem{Required: rg}

	res, err := Run(context.Background(), base, p, nil, Config{Gap: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sel.Exact() {
		t.Fatalf("cold portfolio not exact: %v", res.Sel.Status)
	}
	if len(res.Sel.Chosen) == 0 {
		t.Fatal("cold solve chose nothing")
	}

	wantMax := base.MaxGain()
	newReq := rg * 3 / 4
	edits := []selector.Delta{
		{IPArea: map[string]float64{res.Sel.Chosen[0].IP.ID: res.Sel.Chosen[0].IP.Area * 4}},
		{IMPGain: map[string]int64{db.IMPs[0].ID: db.IMPs[0].GainPerExec * 2}},
		{Required: &newReq},
	}
	an, prev := base, res.Sel
	for i, d := range edits {
		r, na, err := Reselect(context.Background(), an, prev, d, p, Config{Gap: 0})
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		if !r.Seeded {
			t.Errorf("edit %d: race not marked Seeded", i)
		}
		// Cold reference: same delta applied, no seed, plain exact solve.
		refAn, err := an.Apply(d)
		if err != nil {
			t.Fatalf("edit %d: apply: %v", i, err)
		}
		refP, err := refAn.ApplyProblem(d, p)
		if err != nil {
			t.Fatalf("edit %d: apply problem: %v", i, err)
		}
		ref, err := refAn.Solve(context.Background(), refP)
		if err != nil {
			t.Fatalf("edit %d: cold exact: %v", i, err)
		}
		assertSettledMatchesExact(t, fmt.Sprintf("edit %d", i), r, ref)
		an, prev = na, r.Sel
		p, err = na.ApplyProblem(d, p)
		if err != nil {
			t.Fatal(err)
		}
		p.DB = na.DB()
	}
	if base.MaxGain() != wantMax {
		t.Errorf("parent analysis mutated: MaxGain %d, want %d", base.MaxGain(), wantMax)
	}
}

// TestReselectRejectsBadDelta: unknown IDs and negative values error
// without racing anything.
func TestReselectRejectsBadDelta(t *testing.T) {
	db, _, err := apps.GSMEncoderTable()
	if err != nil {
		t.Fatal(err)
	}
	an := selector.NewAnalysis(db)
	neg := int64(-1)
	bad := []selector.Delta{
		{IPArea: map[string]float64{"nope": 1}},
		{IPArea: map[string]float64{db.IMPs[0].IP.ID: -2}},
		{IMPGain: map[string]int64{"nope": 1}},
		{Required: &neg},
		{PathRequired: map[int]int64{99: 1}},
	}
	for i, d := range bad {
		if _, _, err := Reselect(context.Background(), an, nil, d, selector.Problem{Required: 1}, Config{}); err == nil {
			t.Errorf("delta %d: expected an error", i)
		}
	}
}

// TestPortfolioSettledGapIsSound races the 21 published rows of
// Tables 1–3 at gap 0.05 under three budgets that stop the exact
// engine before its proof — an already-canceled context, an expired
// deadline and a one-node limit — and checks every settled answer
// against the row's exact optimum: neither the settled gap nor the
// gap written into the selection may be below the true relative gap
// (area − optimum) / max(1, area).
func TestPortfolioSettledGapIsSound(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	budgets := []struct {
		name string
		ctx  context.Context
		bud  budget.Budget
	}{
		{"canceled", canceled, budget.Budget{}},
		{"expired", expired, budget.Budget{}},
		{"one node", context.Background(), budget.Budget{MaxNodes: 1}},
	}
	runs, answered := 0, 0
	for _, build := range []func() (*imp.DB, []apps.TableRow, error){
		apps.GSMEncoderTable, apps.GSMDecoderTable, apps.JPEGEncoderTable,
	} {
		db, rows, err := build()
		if err != nil {
			t.Fatal(err)
		}
		an := selector.NewAnalysis(db)
		for _, row := range rows {
			ref, err := an.Solve(context.Background(), selector.Problem{Required: row.RG})
			if err != nil || !ref.Exact() {
				t.Fatalf("rg=%d: exact solve %v, err %v", row.RG, ref, err)
			}
			for _, b := range budgets {
				runs++
				res, err := Run(b.ctx, an, selector.Problem{Required: row.RG, Budget: b.bud}, nil, Config{Gap: 0.05})
				if err != nil {
					continue
				}
				answered++
				tag := fmt.Sprintf("rg=%d %s: %s answer, area %v", row.RG, b.name, res.Engine, res.Sel.Area)
				if res.Sel.Status == ilp.Infeasible && res.Sel.Degraded == "" {
					t.Errorf("%s: settled a proof of infeasibility on a row with optimum %v", tag, ref.Area)
					continue
				}
				truth := relGap(res.Sel.Area, ref.Area)
				if res.Gap < truth-1e-9 {
					t.Errorf("%s: settled gap %g below the true gap %g to the optimum %v", tag, res.Gap, truth, ref.Area)
				}
				if res.Sel.Status == ilp.Feasible && !math.IsInf(res.Gap, 0) && res.Sel.Gap != res.Gap {
					t.Errorf("%s: selection gap %g, settled gap %g", tag, res.Sel.Gap, res.Gap)
				}
			}
		}
	}
	if answered == 0 {
		t.Fatal("no run settled with an answer")
	}
	t.Logf("%d of %d runs settled with an answer", answered, runs)
}
