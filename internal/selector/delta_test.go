package selector

import (
	"context"
	"math"
	"testing"

	"partita/internal/iface"
	"partita/internal/ilp"
	"partita/internal/imp"
)

func deltaDB(t *testing.T) *imp.DB {
	t.Helper()
	db, err := imp.NewSyntheticDB([]string{"a", "b"}, []imp.SynthIMP{
		{SC: 1, IP: mkIP("IP1", 10), Type: iface.Type0, Gain: 100, IfaceArea: 1},
		{SC: 1, IP: mkIP("IP2", 4), Type: iface.Type0, Gain: 60, IfaceArea: 1},
		{SC: 2, IP: mkIP("IP3", 6), Type: iface.Type0, Gain: 80, IfaceArea: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestApplyCopyOnWrite: a requirement-only delta returns the receiver
// itself; area-only edits share the coefficient matrix by reference;
// and the parent analysis never observes any edit.
func TestApplyCopyOnWrite(t *testing.T) {
	a := NewAnalysis(deltaDB(t))
	rq := int64(50)

	same, err := a.Apply(Delta{Required: &rq, PathRequired: map[int]int64{0: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if same != a {
		t.Error("requirement-only delta rebuilt the analysis")
	}

	na, err := a.Apply(Delta{IPArea: map[string]float64{"IP1": 2}})
	if err != nil {
		t.Fatal(err)
	}
	if na == a {
		t.Fatal("area edit returned the parent analysis")
	}
	if &na.coef[0][0] != &a.coef[0][0] {
		t.Error("area-only edit copied the coefficient matrix")
	}
	if na.ipArea["IP1"] != 2 || a.ipArea["IP1"] != 10 {
		t.Errorf("areas: derived %v parent %v; want 2 and 10", na.ipArea["IP1"], a.ipArea["IP1"])
	}

	ng, err := a.Apply(Delta{IMPGain: map[string]int64{a.db.IMPs[0].ID: 200}})
	if err != nil {
		t.Fatal(err)
	}
	if &ng.coef[0][0] == &a.coef[0][0] {
		t.Error("gain edit shares coefficient rows with the parent")
	}
	if ng.totalGain[0] != 200 || a.totalGain[0] != 100 {
		t.Errorf("gains: derived %d parent %d; want 200 and 100", ng.totalGain[0], a.totalGain[0])
	}
	if want := int64(200 + 80); ng.MaxGain() != want {
		t.Errorf("derived MaxGain = %d, want %d", ng.MaxGain(), want)
	}
	if a.MaxGain() != 180 {
		t.Errorf("parent MaxGain = %d, want 180", a.MaxGain())
	}
}

// TestApplyChangesAnswer: raising a chosen IP's area flips the optimum
// to the alternative, and the derived analysis solves to the same
// answer a fresh analysis of an equivalently edited DB would.
func TestApplyChangesAnswer(t *testing.T) {
	a := NewAnalysis(deltaDB(t))
	p := Problem{Required: 60}
	base, err := a.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if base.Status != ilp.Optimal || base.Chosen[0].IP.ID != "IP2" {
		t.Fatalf("base optimum unexpected: %+v", base)
	}

	// Make IP2 expensive: IP3's method (gain 80, area 6+2) becomes the
	// optimum.
	na, err := a.Apply(Delta{IPArea: map[string]float64{"IP2": 50}})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := na.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Status != ilp.Optimal || sel.Chosen[0].IP.ID != "IP3" || sel.Area != 8 {
		t.Fatalf("edited optimum unexpected: chose %s area %v", sel.Chosen[0].ID, sel.Area)
	}

	// Gain edit: drop IP1's method to 40 so only IP2 reaches 60... and
	// greedy/exact agree through the same derived coefficients.
	ng, err := a.Apply(Delta{IMPGain: map[string]int64{a.db.IMPs[0].ID: 40}})
	if err != nil {
		t.Fatal(err)
	}
	sel2, err := ng.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if sel2.Status != ilp.Optimal || sel2.Chosen[0].IP.ID != "IP2" {
		t.Fatalf("gain-edited optimum unexpected: %+v", sel2)
	}
	if g := ng.Greedy(Problem{DB: ng.DB(), Required: 60}); g.Status == ilp.Optimal && g.Chosen[0].IP.ID != "IP2" {
		t.Errorf("greedy over derived analysis chose %s", g.Chosen[0].ID)
	}
}

// TestApplyProblemMerging: Required replaces the uniform requirement;
// PathRequired entries override their paths and leave others at -1
// (fall through to Required).
func TestApplyProblemMerging(t *testing.T) {
	a := NewAnalysis(deltaDB(t))
	rq := int64(70)
	p, err := a.ApplyProblem(Delta{Required: &rq, PathRequired: map[int]int64{0: 30}}, Problem{Required: 10})
	if err != nil {
		t.Fatal(err)
	}
	if p.Required != 70 {
		t.Errorf("Required = %d, want 70", p.Required)
	}
	if len(p.PerPath) != 1 || p.PerPath[0] != 30 {
		t.Errorf("PerPath = %v, want [30]", p.PerPath)
	}
}

// TestDeltaMerge: later edits win per field, earlier ones survive where
// untouched, and neither input is mutated.
func TestDeltaMerge(t *testing.T) {
	r1, r2 := int64(5), int64(9)
	d := Delta{IPArea: map[string]float64{"A": 1, "B": 2}, Required: &r1}
	e := Delta{IPArea: map[string]float64{"B": 7}, IMPGain: map[string]int64{"m": 3}, Required: &r2}
	m := d.Merge(e)
	if m.IPArea["A"] != 1 || m.IPArea["B"] != 7 || m.IMPGain["m"] != 3 || *m.Required != 9 {
		t.Errorf("merge wrong: %+v", m)
	}
	if d.IPArea["B"] != 2 || *d.Required != 5 {
		t.Error("merge mutated the receiver")
	}
	if !(Delta{}).Empty() || m.Empty() {
		t.Error("Empty misreports")
	}
	// Merged pointer must not alias the inputs.
	*m.Required = 100
	if *e.Required != 9 {
		t.Error("merged Required aliases the input")
	}
}

// TestLPRoundBounds: the root LP's bound never exceeds the true optimal
// area, and past the reachable gain the relaxation is infeasible, so the
// bound is +Inf. No call returns a selection.
func TestLPRoundBounds(t *testing.T) {
	a := NewAnalysis(deltaDB(t))
	p := Problem{Required: 60}
	exact, err := a.Solve(context.Background(), p)
	if err != nil || exact.Status != ilp.Optimal {
		t.Fatalf("exact: %v %v", err, exact)
	}
	sel, bound, err := a.LPRound(context.Background(), p, nil)
	if err != nil {
		t.Fatalf("lp round: %v", err)
	}
	if bound > exact.Area+1e-9 {
		t.Errorf("LP bound %v exceeds optimal area %v", bound, exact.Area)
	}
	if sel != nil {
		t.Errorf("selection %+v, want none", sel)
	}

	sel, bound, err = a.LPRound(context.Background(), Problem{Required: a.MaxGain() + 1}, nil)
	if err != nil {
		t.Fatalf("infeasible lp round: %v", err)
	}
	if !math.IsInf(bound, 1) || sel != nil {
		t.Errorf("bound %v and selection %+v past the reachable gain, want +Inf and none (LP infeasibility is a proof)", bound, sel)
	}
}
