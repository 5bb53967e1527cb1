package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"partita/internal/budget"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLPSimpleMax(t *testing.T) {
	// max 3x + 5y, as min -3x - 5y ; x <= 4 ; 2y <= 12 ; 3x + 2y <= 18
	// -> x=2, y=6, obj=-36
	m := NewModel()
	x := m.AddVar("x", 0, math.Inf(1), -3)
	y := m.AddVar("y", 0, math.Inf(1), -5)
	m.AddConstraint("c1", []Term{{x, 1}}, LE, 4)
	m.AddConstraint("c2", []Term{{y, 2}}, LE, 12)
	m.AddConstraint("c3", []Term{{x, 3}, {y, 2}}, LE, 18)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	if !almost(s.Objective, -36, 1e-6) {
		t.Errorf("objective = %g, want -36", s.Objective)
	}
	if !almost(s.Value(x), 2, 1e-6) || !almost(s.Value(y), 6, 1e-6) {
		t.Errorf("x=%g y=%g, want 2, 6", s.Value(x), s.Value(y))
	}
}

func TestLPMinWithGE(t *testing.T) {
	// min 2x + 3y ; x + y >= 10 ; x >= 2 (bound) -> y=8? min: put weight on x:
	// cost x cheaper, so x=10-... x+y>=10, x in [2,inf), y >= 0: best x=10,y=0 obj 20?
	// 2*10=20 vs x=2,y=8 -> 4+24=28. So x=10.
	m := NewModel()
	x := m.AddVar("x", 2, math.Inf(1), 2)
	y := m.AddVar("y", 0, math.Inf(1), 3)
	m.AddConstraint("cover", []Term{{x, 1}, {y, 1}}, GE, 10)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if !almost(s.Objective, 20, 1e-6) {
		t.Errorf("objective = %g, want 20", s.Objective)
	}
	if !almost(s.Value(x), 10, 1e-6) {
		t.Errorf("x = %g, want 10", s.Value(x))
	}
}

func TestLPEquality(t *testing.T) {
	// min x + y ; x + 2y = 6 ; x - y = 0  -> x=y=2, obj 4
	m := NewModel()
	x := m.AddVar("x", 0, math.Inf(1), 1)
	y := m.AddVar("y", 0, math.Inf(1), 1)
	m.AddConstraint("e1", []Term{{x, 1}, {y, 2}}, EQ, 6)
	m.AddConstraint("e2", []Term{{x, 1}, {y, -1}}, EQ, 0)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !almost(s.Objective, 4, 1e-6) {
		t.Fatalf("status=%v obj=%g, want optimal 4", s.Status, s.Objective)
	}
	if !almost(s.Value(x), 2, 1e-6) || !almost(s.Value(y), 2, 1e-6) {
		t.Errorf("x=%g y=%g, want 2, 2", s.Value(x), s.Value(y))
	}
}

func TestLPInfeasible(t *testing.T) {
	m := NewModel()
	x := m.AddVar("x", 0, 1, 1)
	m.AddConstraint("big", []Term{{x, 1}}, GE, 5)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestLPUnbounded(t *testing.T) {
	m := NewModel()
	x := m.AddVar("x", 0, math.Inf(1), -1)
	y := m.AddVar("y", 0, math.Inf(1), -1)
	m.AddConstraint("diff", []Term{{x, 1}, {y, -1}}, LE, 1)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

// TestLPEntryPointsAgree: a pure LP solved by SolveCtx, the same model
// with one unused binary (so branch and bound runs), and SolveRelaxation
// report the same Status and Bound, for an objective and for its
// negation: +Inf for an infeasible relaxation, -Inf for an unbounded
// one, the optimum otherwise. Each of them solves exactly one LP and
// counts it. Presolve settles the two infeasible cases bound
// propagation can prove, with no simplex iteration, and counts them as
// infeasible in presolve; the cases only the simplex settles count its
// work, pivots and bound flips together, and an infeasible one counts
// as infeasible by LP.
func TestLPEntryPointsAgree(t *testing.T) {
	// build adds a case's variables, each cost multiplied by sgn, and
	// its rows.
	type build func(m *Model, sgn float64)
	cases := []struct {
		name   string
		build  build
		status Status
		// bound is the Bound for the objective and for its negation.
		bound   [2]float64
		simplex bool
	}{
		{"infeasible", func(m *Model, sgn float64) {
			x := m.AddVar("x", 0, 1, sgn)
			m.AddConstraint("big", []Term{{x, 1}}, GE, 5)
		}, Infeasible, [2]float64{math.Inf(1), math.Inf(1)}, false},
		{"infeasible coupled", func(m *Model, sgn float64) {
			// The row's greatest activity over [0,1]² is 2.
			x := m.AddVar("x", 0, 1, sgn)
			y := m.AddVar("y", 0, 1, sgn)
			m.AddConstraint("big", []Term{{x, 1}, {y, 1}}, GE, 5)
		}, Infeasible, [2]float64{math.Inf(1), math.Inf(1)}, false},
		{"infeasible pair", func(m *Model, sgn float64) {
			// Each row alone only raises a lower bound, and no finite
			// number of sweeps meets the upper bounds, which are +Inf;
			// the rows' sum, 0 ≥ 2, is what the simplex finds.
			x := m.AddVar("x", 0, math.Inf(1), sgn)
			y := m.AddVar("y", 0, math.Inf(1), sgn)
			m.AddConstraint("xy", []Term{{x, 1}, {y, -1}}, GE, 1)
			m.AddConstraint("yx", []Term{{y, 1}, {x, -1}}, GE, 1)
		}, Infeasible, [2]float64{math.Inf(1), math.Inf(1)}, true},
		{"unbounded", func(m *Model, _ float64) {
			// x − y ≤ 1 with y free above: −x − y falls without limit.
			// Its negation x + y is bounded, so both runs keep −x − y.
			x := m.AddVar("x", 0, math.Inf(1), -1)
			y := m.AddVar("y", 0, math.Inf(1), -1)
			m.AddConstraint("diff", []Term{{x, 1}, {y, -1}}, LE, 1)
		}, Unbounded, [2]float64{math.Inf(-1), math.Inf(-1)}, true},
		{"optimal", func(m *Model, sgn float64) {
			// x ≤ 4, y ≤ 3, x + y ≥ 2: minimum of x + 2y is 2, and of
			// −x − 2y is −10.
			x := m.AddVar("x", 0, 4, sgn)
			y := m.AddVar("y", 0, 3, 2*sgn)
			m.AddConstraint("cover", []Term{{x, 1}, {y, 1}}, GE, 2)
		}, Optimal, [2]float64{2, -10}, true},
	}
	for _, c := range cases {
		for k, sgn := range [2]float64{1, -1} {
			label := c.name + [2]string{"/obj", "/neg"}[k]
			lp := NewModel()
			c.build(lp, sgn)
			withBinary := NewModel()
			c.build(withBinary, sgn)
			withBinary.AddBinary("unused", 0)
			solvers := []struct {
				name  string
				solve func() (*Solution, error)
			}{
				{"SolveCtx", func() (*Solution, error) { return lp.SolveCtx(context.Background(), budget.Budget{}) }},
				{"SolveCtx+binary", func() (*Solution, error) { return withBinary.SolveCtx(context.Background(), budget.Budget{}) }},
				{"SolveRelaxation", func() (*Solution, error) { return lp.SolveRelaxation(context.Background(), budget.Budget{}) }},
			}
			for _, sv := range solvers {
				s, err := sv.solve()
				if err != nil {
					t.Fatalf("%s/%s: %v", label, sv.name, err)
				}
				want := c.bound[k]
				if s.Status != c.status || s.Bound != want {
					t.Errorf("%s/%s: %v with bound %v, want %v with bound %v", label, sv.name, s.Status, s.Bound, c.status, want)
				}
				if c.status == Optimal && s.Objective != want {
					t.Errorf("%s/%s: objective %v, want %v", label, sv.name, s.Objective, want)
				}
				if s.Nodes != 1 || s.Stats.ColdLPs != 1 {
					t.Errorf("%s/%s: %d nodes, stats %+v, want one node and one cold LP", label, sv.name, s.Nodes, s.Stats)
				}
				if work := s.Stats.PrimalPivots + s.Stats.BoundFlips; c.simplex != (work > 0) {
					t.Errorf("%s/%s: stats %+v, want simplex work counted: %v", label, sv.name, s.Stats, c.simplex)
				}
				var presolved, lp int64
				if c.status == Infeasible {
					if c.simplex {
						lp = 1
					} else {
						presolved = 1
					}
				}
				if s.Stats.PresolveInfeasible != presolved || s.Stats.LPInfeasible != lp {
					t.Errorf("%s/%s: stats %+v, want %d infeasible in presolve and %d by LP", label, sv.name, s.Stats, presolved, lp)
				}
			}
		}
	}
}

// TestSolveRelaxationBelowOptimum: on 200 random 0-1 models,
// SolveRelaxation solves one node and one LP, its Bound is its
// Objective and never exceeds branch and bound's optimum, and it
// claims Infeasible only for a model branch and bound finds
// infeasible.
func TestSolveRelaxationBelowOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(420))
	optimal, below := 0, 0
	for c := 0; c < 200; c++ {
		data := make([]byte, 4+rng.Intn(60))
		rng.Read(data)
		m, _, _ := decodeModel(data)
		ref, err := m.SolveCtx(context.Background(), budget.Budget{})
		if err != nil {
			t.Fatalf("model %d: exact solve failed: %v\n%s", c, err, m)
		}
		lp, err := m.SolveRelaxation(context.Background(), budget.Budget{})
		if err != nil {
			t.Fatalf("model %d: relaxation failed: %v\n%s", c, err, m)
		}
		if lp.Nodes != 1 || lp.Stats.ColdLPs != 1 {
			t.Errorf("model %d: %d nodes, stats %+v, want one node and one cold LP", c, lp.Nodes, lp.Stats)
		}
		switch lp.Status {
		case Infeasible:
			if ref.Status != Infeasible {
				t.Fatalf("model %d: relaxation Infeasible, exact %v\n%s", c, ref.Status, m)
			}
		case Optimal:
			if lp.Bound != lp.Objective {
				t.Fatalf("model %d: relaxation bound %g, objective %g\n%s", c, lp.Bound, lp.Objective, m)
			}
			if ref.Status != Optimal {
				break
			}
			optimal++
			if lp.Bound > ref.Objective+1e-6 {
				t.Fatalf("model %d: relaxation bound %g above the optimum %g\n%s", c, lp.Bound, ref.Objective, m)
			}
			if lp.Bound < ref.Objective-1e-6 {
				below++
			}
		default:
			t.Fatalf("model %d: relaxation %v\n%s", c, lp.Status, m)
		}
	}
	if optimal < 50 || below < 10 {
		t.Fatalf("%d of 200 models optimal, %d with a relaxation bound below the optimum; the corpus proves too little", optimal, below)
	}
}

// TestLPFreeVariablesAreNoRay: a variable with no bound is the
// difference of two columns, and once one is basic the other's reduced
// cost is an exact zero that rounding against costs of 10⁶ can make
// look negative. Entering it moves both parts and leaves the variable
// where it is, which is no ray: here the three free variables are tied
// to x0 ∈ [0.25, 1] by equalities, so the minimum is finite.
func TestLPFreeVariablesAreNoRay(t *testing.T) {
	inf := math.Inf(1)
	m := NewModel()
	x0 := m.AddVar("x0", 0, 1, 4)
	x1 := m.AddVar("x1", -inf, inf, -63)
	x2 := m.AddVar("x2", -inf, inf, 1)
	x3 := m.AddVar("x3", -inf, inf, 630435)
	m.AddConstraint("c0", []Term{{x0, -47}, {x0, 8}, {x0, 378261}}, GE, 94553.5)
	m.AddConstraint("c1", []Term{{x3, 2}, {x1, 4}, {x3, -3}, {x3, 2}}, EQ, -11)
	m.AddConstraint("c3", []Term{{x0, 5}, {x3, 5}, {x0, 2}, {x2, 1}}, EQ, -13.25)
	m.AddConstraint("c4", []Term{{x1, -2}, {x0, -2}, {x1, -3}, {x3, -1}}, EQ, 12.5)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// x1 = −1.5 − 2·x0, x2 = 11.75 − 47·x0 and x3 = −5 + 8·x0 leave
	// the objective 5 043 563·x0 − 3 152 068.75, least at the least x0.
	want := 5043563*(94553.5/378222) - 3152068.75
	if s.Status != Optimal || math.Abs(s.Objective-want) > 1e-6*math.Abs(want) {
		t.Fatalf("status=%v obj=%.10g, want optimal %.10g", s.Status, s.Objective, want)
	}
	if err := m.Check(s, 1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestLPUpperBounds(t *testing.T) {
	// min -x - y with x <= 3, y <= 4 via variable bounds only.
	m := NewModel()
	x := m.AddVar("x", 0, 3, -1)
	y := m.AddVar("y", 0, 4, -1)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !almost(s.Objective, -7, 1e-6) {
		t.Fatalf("status=%v obj=%g, want optimal -7", s.Status, s.Objective)
	}
	_ = x
	_ = y
}

func TestLPShiftedLowerBounds(t *testing.T) {
	// min x+y with x in [5, 10], y in [3, inf), x + y >= 12.
	// Optimum: x=5 forced? cost equal; x+y = 12 binding; any split works,
	// objective must be 12.
	m := NewModel()
	x := m.AddVar("x", 5, 10, 1)
	y := m.AddVar("y", 3, math.Inf(1), 1)
	m.AddConstraint("c", []Term{{x, 1}, {y, 1}}, GE, 12)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !almost(s.Objective, 12, 1e-6) {
		t.Fatalf("status=%v obj=%g, want optimal 12", s.Status, s.Objective)
	}
	if s.Value(x) < 5-1e-9 || s.Value(x) > 10+1e-9 || s.Value(y) < 3-1e-9 {
		t.Errorf("solution violates bounds: x=%g y=%g", s.Value(x), s.Value(y))
	}
}

func TestLPDegenerate(t *testing.T) {
	// A classic cycling-prone instance; Bland's rule must terminate.
	m := NewModel()
	x1 := m.AddVar("x1", 0, math.Inf(1), -0.75)
	x2 := m.AddVar("x2", 0, math.Inf(1), 150)
	x3 := m.AddVar("x3", 0, math.Inf(1), -0.02)
	x4 := m.AddVar("x4", 0, math.Inf(1), 6)
	m.AddConstraint("r1", []Term{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, LE, 0)
	m.AddConstraint("r2", []Term{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, LE, 0)
	m.AddConstraint("r3", []Term{{x3, 1}}, LE, 1)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	if !almost(s.Objective, -0.05, 1e-6) {
		t.Errorf("objective = %g, want -0.05", s.Objective)
	}
}

func TestLPLargeMagnitudes(t *testing.T) {
	// Magnitudes like the JPEG gains (~3.7e7) must not break feasibility
	// detection.
	m := NewModel()
	x := m.AddVar("x", 0, 1, 27)
	y := m.AddVar("y", 0, 1, 11)
	m.AddConstraint("gain", []Term{{x, 37717440}, {y, 37081088}}, GE, 37282645)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	// LP optimum is fractional on the cheaper ratio variable.
	if s.Objective <= 0 || s.Objective > 27+11 {
		t.Errorf("objective = %g out of range", s.Objective)
	}
}

func TestLPEmptyModel(t *testing.T) {
	m := NewModel()
	if _, err := m.Solve(); err == nil {
		t.Fatal("expected error for empty model")
	}
}

func TestLPRedundantEqualities(t *testing.T) {
	// Duplicate equality rows leave an artificial basic at zero; the
	// drive-out path must cope.
	m := NewModel()
	x := m.AddVar("x", 0, math.Inf(1), 1)
	y := m.AddVar("y", 0, math.Inf(1), 2)
	m.AddConstraint("e1", []Term{{x, 1}, {y, 1}}, EQ, 4)
	m.AddConstraint("e2", []Term{{x, 2}, {y, 2}}, EQ, 8)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !almost(s.Objective, 4, 1e-6) {
		t.Fatalf("status=%v obj=%g, want optimal 4 (x=4, y=0)", s.Status, s.Objective)
	}
}

func TestModelStringSmoke(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("x", 3)
	m.AddConstraint("c", []Term{{x, 1}}, GE, 1)
	if got := m.String(); got == "" {
		t.Error("String() returned empty")
	}
}
