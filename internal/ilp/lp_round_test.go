package ilp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"partita/internal/budget"
)

// TestLPRoundIntegralOptimum: a model whose root relaxation is integral
// is solved to proven optimality in one node, matching branch and bound.
func TestLPRoundIntegralOptimum(t *testing.T) {
	m := NewModel(Maximize)
	x := m.AddBinary("x", 5)
	y := m.AddBinary("y", 3)
	m.AddConstraint("c", []Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, LE, 1)
	s, err := m.SolveLPRound(context.Background(), budget.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || s.Objective != 5 || s.Bound != 5 || s.Nodes != 1 {
		t.Fatalf("got %v/%g bound %g nodes %d, want Optimal/5/5/1", s.Status, s.Objective, s.Bound, s.Nodes)
	}
	if err := m.Check(s, 1e-6); err != nil {
		t.Error(err)
	}
}

// TestLPRoundFractionalRounds: on the adversarial fixed-charge instance
// the relaxation is fractional; rounding must produce a verified
// Feasible point whose objective and bound bracket the true optimum.
func TestLPRoundFractionalRounds(t *testing.T) {
	n := 12
	m := adversarialModel(n)
	s, err := m.SolveLPRound(context.Background(), budget.Budget{})
	if errors.Is(err, ErrNoRounding) {
		t.Skip("rounding failed on this instance; covered by the explicit failure test")
	}
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Feasible && s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if err := m.Check(s, 1e-6); err != nil {
		t.Fatal(err)
	}
	opt := adversarialOptimum(n)
	// Maximize: objective ≤ optimum ≤ bound.
	if s.Objective > opt+1e-9 {
		t.Errorf("rounded objective %g beats the optimum %g", s.Objective, opt)
	}
	if s.Bound < opt-1e-9 {
		t.Errorf("LP bound %g below the optimum %g", s.Bound, opt)
	}
	if s.Nodes != 1 {
		t.Errorf("nodes = %d, want 1", s.Nodes)
	}
}

// TestLPRoundInfeasibleProof: an infeasible relaxation proves the ILP
// infeasible.
func TestLPRoundInfeasibleProof(t *testing.T) {
	m := NewModel(Minimize)
	a := m.AddBinary("a", 1)
	b := m.AddBinary("b", 1)
	m.AddConstraint("sum", []Term{{Var: a, Coef: 1}, {Var: b, Coef: 1}}, GE, 3)
	s, err := m.SolveLPRound(context.Background(), budget.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want Infeasible", s.Status)
	}
}

// lpRoundHostile is a model nearest-integer rounding cannot repair,
// and whose bounds no row tightens, so presolve leaves the relaxation to
// the simplex: its optimum takes one unit from u and v and w = 1/4, and
// snapping w to 0 leaves the gain row short. The optimum is w = 1 alone.
func lpRoundHostile() *Model {
	m := NewModel(Minimize)
	u := m.AddBinary("u", 1)
	v := m.AddBinary("v", 1)
	w := m.AddBinary("w", 10)
	m.AddConstraint("one", []Term{{Var: u, Coef: 1}, {Var: v, Coef: 1}}, LE, 1)
	m.AddConstraint("gain", []Term{{Var: u, Coef: 1}, {Var: v, Coef: 1}, {Var: w, Coef: 4}}, GE, 2)
	return m
}

// TestLPRoundHostileNoRounding: on the hostile instance rounding finds
// no feasible point, so SolveLPRound returns ErrNoRounding.
func TestLPRoundHostileNoRounding(t *testing.T) {
	m := lpRoundHostile()
	if _, err := m.SolveLPRound(context.Background(), budget.Budget{}); !errors.Is(err, ErrNoRounding) {
		t.Fatalf("err = %v, want ErrNoRounding", err)
	}
}

// TestLPRoundFuzzCorpusSound extends the 20-model equivalence corpus to
// the LP-round engine: on every model where it produces an answer, the
// answer verifies and brackets the exact optimum correctly — Optimal
// claims match branch and bound exactly, Feasible objectives never beat
// it, bounds never cross it, and Infeasible claims agree.
func TestLPRoundFuzzCorpusSound(t *testing.T) {
	rng := rand.New(rand.NewSource(420))
	answered := 0
	for c := 0; c < 20; c++ {
		data := make([]byte, 4+rng.Intn(60))
		rng.Read(data)
		m, _, ok := decodeModel(data)
		if !ok {
			continue
		}
		ref, err := m.SolveCtx(context.Background(), budget.Budget{})
		if err != nil {
			t.Fatalf("model %d: exact solve failed: %v\n%s", c, err, m)
		}
		lp, err := m.SolveLPRound(context.Background(), budget.Budget{})
		if errors.Is(err, ErrNoRounding) {
			continue
		}
		if err != nil {
			t.Fatalf("model %d: lp round failed: %v\n%s", c, err, m)
		}
		answered++
		if err := m.Check(lp, 1e-6); err != nil {
			t.Fatalf("model %d: lp-round solution fails Check: %v\n%s", c, err, m)
		}
		sign := 1.0 // minimization: objective ≥ optimum ≥ bound
		if m.sense == Maximize {
			sign = -1
		}
		switch lp.Status {
		case Infeasible:
			if ref.Status != Infeasible {
				t.Fatalf("model %d: lp round claims Infeasible, exact says %v\n%s", c, ref.Status, m)
			}
		case Optimal:
			if ref.Status != Optimal || math.Abs(lp.Objective-ref.Objective) > 1e-6 {
				t.Fatalf("model %d: lp round claims Optimal %g, exact %v/%g\n%s",
					c, lp.Objective, ref.Status, ref.Objective, m)
			}
		case Feasible:
			if ref.Status == Optimal {
				if sign*(lp.Objective-ref.Objective) < -1e-6 {
					t.Fatalf("model %d: rounded objective %g beats the optimum %g\n%s", c, lp.Objective, ref.Objective, m)
				}
				if sign*(ref.Objective-lp.Bound) < -1e-6 {
					t.Fatalf("model %d: LP bound %g crosses the optimum %g\n%s", c, lp.Bound, ref.Objective, m)
				}
			}
		case Unbounded:
			if ref.Status != Unbounded {
				t.Fatalf("model %d: lp round claims Unbounded, exact says %v\n%s", c, ref.Status, m)
			}
		}
	}
	if answered < 5 {
		t.Fatalf("lp round answered only %d of 20 corpus models; corpus too degenerate", answered)
	}
}
