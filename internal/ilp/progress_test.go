package ilp

import (
	"context"
	"math"
	"testing"

	"partita/internal/budget"
)

// oddCycleCover builds a weighted vertex-cover model over an odd cycle.
// Its LP relaxation is fully fractional (all 0.5), so the opportunistic
// rounding pass seeds a deliberately poor incumbent that branch and
// bound then improves several times — exercising the progress stream.
func oddCycleCover(costs []float64) (*Model, []VarID) {
	m := NewModel()
	n := len(costs)
	xs := make([]VarID, n)
	for i, c := range costs {
		xs[i] = m.AddBinary("x", c)
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		m.AddConstraint("edge", []Term{{Var: xs[i], Coef: 1}, {Var: xs[j], Coef: 1}}, GE, 1)
	}
	return m, xs
}

func TestOnIncumbentMonotonicImprovement(t *testing.T) {
	m, _ := oddCycleCover([]float64{3, 5, 4, 6, 2, 7, 3, 4, 5})
	var events []Progress
	m.OnIncumbent(func(p Progress) { events = append(events, p) })
	sol, err := m.SolveCtx(context.Background(), budget.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if len(events) == 0 {
		t.Fatal("no incumbent events fired")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Objective >= events[i-1].Objective {
			t.Errorf("event %d objective %g does not improve on %g",
				i, events[i].Objective, events[i-1].Objective)
		}
		if events[i].Nodes < events[i-1].Nodes {
			t.Errorf("event %d node count %d went backwards from %d",
				i, events[i].Nodes, events[i-1].Nodes)
		}
	}
	last := events[len(events)-1]
	if math.Abs(last.Objective-sol.Objective) > 1e-6 {
		t.Errorf("last event objective %g != final objective %g", last.Objective, sol.Objective)
	}
	for i, e := range events {
		if e.Bound > e.Objective+1e-9 {
			t.Errorf("event %d bound %g exceeds its objective %g", i, e.Bound, e.Objective)
		}
		if e.Nodes <= 0 {
			t.Errorf("event %d has non-positive node count %d", i, e.Nodes)
		}
		if g := e.Gap(); g < 0 {
			t.Errorf("event %d gap %g < 0", i, g)
		}
	}
}

func TestOnIncumbentAnytimeStop(t *testing.T) {
	// With a one-node budget the solve stops early; any events that did
	// fire must still be consistent with the returned incumbent.
	// Uniform costs make the root relaxation's unique optimum the
	// all-0.5 point, so the solve cannot finish at the root node.
	m, _ := oddCycleCover([]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	var events []Progress
	m.OnIncumbent(func(p Progress) { events = append(events, p) })
	sol, err := m.SolveCtx(context.Background(), budget.Budget{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Feasible {
		t.Fatalf("status = %v, want feasible (anytime)", sol.Status)
	}
	if len(events) == 0 {
		t.Fatal("expected the rounding pass to report at least one incumbent")
	}
	last := events[len(events)-1]
	if math.Abs(last.Objective-sol.Objective) > 1e-6 {
		t.Errorf("last event objective %g != anytime objective %g", last.Objective, sol.Objective)
	}
}
