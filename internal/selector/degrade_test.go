package selector

import (
	"context"
	"errors"
	"testing"
	"time"

	"partita/internal/budget"
	"partita/internal/iface"
	"partita/internal/ilp"
	"partita/internal/imp"
)

// degradeDB builds an instance whose pass-1 LP root is fractional in a
// way nearest-integer rounding cannot repair: one s-call, a small
// parallel-code method (gain 100, area 1) and two interchangeable big
// plain methods on distinct IPs (gain 200, area 10 each), requirement
// 150. The LP optimum mixes the cheap and one big method at 1/2 each on
// the at-most-one row (area 5.5, versus 7.5 for 3/4 of a big one
// alone), and rounding both halves up violates that row — so a 1-node
// budget ends with no incumbent. Two big IPs keep the root-probing cut
// from forcing either indicator (no single IP is essential), so the
// root stays fractional. The greedy baseline, which never uses
// parallel-code methods, still succeeds with one big method alone.
func degradeDB(t *testing.T) *imp.DB {
	t.Helper()
	cheap := mkIP("IPC", 1)
	big := mkIP("IPB", 10)
	big2 := mkIP("IPD", 10)
	db, err := imp.NewSyntheticDB([]string{"a"}, []imp.SynthIMP{
		{SC: 1, IP: cheap, Type: iface.Type1, Gain: 100, IfaceArea: 0, UsesPC: true},
		{SC: 1, IP: big, Type: iface.Type0, Gain: 200, IfaceArea: 0},
		{SC: 1, IP: big2, Type: iface.Type0, Gain: 200, IfaceArea: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// Exhausting the budget before any incumbent exists must not fail the
// selection: the solver falls back to the greedy baseline and labels
// the result Degraded.
func TestDegradeToGreedyOnNodeLimit(t *testing.T) {
	db := degradeDB(t)
	sel, err := SolveCtx(context.Background(), Problem{
		DB: db, Required: 150, Budget: budget.Budget{MaxNodes: 1},
	})
	if err != nil {
		t.Fatalf("budgeted solve failed instead of degrading: %v", err)
	}
	if sel.Degraded == "" {
		t.Fatal("selection not flagged Degraded")
	}
	if sel.Exact() {
		t.Error("degraded selection claims exactness")
	}
	if sel.Status != ilp.Feasible {
		t.Errorf("status = %v, want Feasible", sel.Status)
	}
	// The greedy answer must still meet the requirement here (the big
	// method alone suffices).
	if sel.Gain < 150 {
		t.Errorf("degraded gain = %d, want ≥ 150", sel.Gain)
	}
	if len(sel.Chosen) == 0 {
		t.Error("degraded selection chose nothing")
	}
}

// With enough nodes the same instance solves exactly — the degradation
// above is purely budget-induced.
func TestDegradeInstanceSolvableExactly(t *testing.T) {
	db := degradeDB(t)
	sel, err := Solve(Problem{DB: db, Required: 150})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Status != ilp.Optimal || !sel.Exact() {
		t.Fatalf("status = %v (degraded %q), want exact Optimal", sel.Status, sel.Degraded)
	}
	// Optimal: the big method alone (area 10) — not both (area 11).
	if sel.Area != 10 {
		t.Errorf("area = %g, want 10", sel.Area)
	}
}

// Cancellation is a caller decision, not a budget exhaustion: no greedy
// fallback, the error surfaces.
func TestSolveCtxCancelNoFallback(t *testing.T) {
	db := degradeDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sel, err := SolveCtx(ctx, Problem{DB: db, Required: 150})
	if err == nil {
		t.Fatalf("cancelled solve produced %+v instead of an error", sel)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
}

// A sweep under a per-point budget still yields a full curve; budget
// casualties show up as Feasible/Degraded points, never as holes.
func TestSweepCtxBudgeted(t *testing.T) {
	db := degradeDB(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	pts, err := NewAnalysis(db).SweepPoints(ctx, 5, budget.Budget{MaxNodes: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("empty sweep")
	}
	for _, p := range pts {
		if p.Sel == nil {
			t.Fatalf("sweep point at gain %d lacks a selection", p.Required)
		}
	}
}
