package ilp

import (
	"context"
	"math"
	"testing"

	"partita/internal/budget"
)

// FuzzSolve decodes arbitrary bytes into a small 0-1 model and solves it
// under a node budget. Contracts under attack: the solver never panics,
// any Optimal or Feasible solution passes Check (bounds, integrality,
// every constraint), and a Feasible solution's bound never excludes its
// own incumbent. When the solve is an Optimal minimization, the bytes
// left over give a second objective, and a tie-break pass that pins the
// first objective at its optimum must reach the same status and
// objective from the first solve's leaves (SolveWithin) as from the
// root.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 3, 7})
	f.Add([]byte{4, 2, 250, 3, 1, 9, 0, 200, 2, 2, 2, 39, 1})
	f.Add([]byte{6, 3, 1, 2, 3, 4, 5, 6, 0, 100, 7, 7, 7, 7, 7, 7, 20, 1, 50, 128, 129, 130, 131, 132, 133, 3, 2})
	f.Add([]byte{8, 8, 255, 255, 255, 255, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	// Ties: four unit costs under a fractional cover; the first solve
	// retires six leaves, all at the optimum.
	f.Add([]byte{3, 1, 0, 11, 11, 11, 11, 7, 7, 7, 7, 1, 13, 13, 7, 9, 12})
	// Ties: costs of one and two under two covers and a packing row; the
	// tie-break pass skips four of the five leaves.
	f.Add([]byte{5, 3, 0, 11, 11, 12, 12, 11, 12, 7, 7, 6, 5, 6, 5, 1, 13, 5, 7, 6, 7, 5, 7, 1, 13, 6, 6, 6, 6, 6, 6, 0, 14, 8, 12, 10, 14, 9, 11})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, rest, ok := decodeModel(data)
		if !ok {
			return
		}
		s, err := m.SolveCtx(context.Background(), budget.Budget{MaxNodes: 200})
		if err != nil {
			// Budget exhaustion without an incumbent, or an empty
			// model — both are contractual errors, not findings.
			if budget.IsExhausted(err) || err == ErrNoVariables {
				return
			}
			// Validation errors (NaN/Inf coefficients never occur by
			// construction) would be a decoder bug.
			t.Fatalf("solve failed: %v\nmodel:\n%s", err, m)
		}
		switch s.Status {
		case Optimal, Feasible:
			if err := m.Check(s, 1e-4); err != nil {
				t.Fatalf("%v solution fails Check: %v\nmodel:\n%s", s.Status, err, m)
			}
			if s.Status == Feasible {
				if g := s.Gap(); g < 0 || math.IsNaN(g) {
					t.Fatalf("feasible solution has gap %g", g)
				}
			}
		case Infeasible, Unbounded:
			// Nothing further to verify mechanically here.
		default:
			t.Fatalf("unknown status %v", s.Status)
		}
		if s.Status == Optimal && m.sense == Minimize {
			tieBreakFromLeaves(t, m, s, rest)
		}
	})
}

// tieBreakFromLeaves builds the tie-break pass of m: its variables and
// rows, a row pinning m's objective at s's optimum + 1e-6, and a second
// objective decoded from data. Solved from s's leaves, it must match a
// root solve.
func tieBreakFromLeaves(t *testing.T, m *Model, s *Solution, data []byte) {
	t.Helper()
	m2 := NewModel(Minimize)
	var pin []Term
	for j, v := range m.vars {
		obj := 0.0
		if j < len(data) {
			obj = float64(int(data[j])%21 - 10)
		}
		m2.vars = append(m2.vars, variable{name: v.name, lo: v.lo, hi: v.hi, obj: obj, integer: v.integer})
		pin = append(pin, Term{Var: VarID(j), Coef: v.obj})
	}
	m2.cons = append(m2.cons, m.cons...)
	limit := s.Objective + 1e-6
	m2.AddConstraint("pin", pin, LE, limit)
	root, err := m2.SolveCtx(context.Background(), budget.Budget{})
	if err != nil {
		t.Fatalf("root tie-break solve: %v\nmodel:\n%s", err, m2)
	}
	within, err := m2.SolveWithin(context.Background(), budget.Budget{}, s, limit)
	if err != nil {
		t.Fatalf("tie-break solve from the leaves: %v\nmodel:\n%s", err, m2)
	}
	// The pin's 1e-6 slack lets an LP optimum sit within intEps of an
	// integer point, and a solve reports that LP objective: the two
	// searches may stop at different such points, as in seed_pin_slack.
	if within.Status != root.Status || root.Status == Optimal && math.Abs(within.Objective-root.Objective) > 1e-4*(1+math.Abs(root.Objective)) {
		t.Fatalf("tie-break from the leaves %v %g, from the root %v %g\nmodel:\n%s",
			within.Status, within.Objective, root.Status, root.Objective, m2)
	}
	if root.Status != Optimal {
		t.Fatalf("tie-break pass %v; the first solve's optimum satisfies it\nmodel:\n%s", root.Status, m2)
	}
	if err := m2.Check(within, 1e-4); err != nil {
		t.Fatalf("tie-break solution fails Check: %v\nmodel:\n%s", err, m2)
	}
}

// decodeModel derives a deterministic small model from raw bytes:
// byte 0 → number of binaries (1..8), byte 1 → number of constraints
// (0..6), byte 2 → sense, then objective coefficients and per-constraint
// (coeffs, rel, rhs) records; it also returns the bytes it left.
// Coefficients are small signed integers so the simplex stays
// well-conditioned and Check tolerances are meaningful.
func decodeModel(data []byte) (*Model, []byte, bool) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	nv := int(next())%8 + 1
	nc := int(next()) % 7
	sense := Minimize
	if next()%2 == 1 {
		sense = Maximize
	}
	m := NewModel(sense)
	vars := make([]VarID, nv)
	for i := range vars {
		obj := float64(int(next())%21 - 10)
		vars[i] = m.AddBinary("x", obj)
	}
	for c := 0; c < nc; c++ {
		terms := make([]Term, 0, nv)
		for _, v := range vars {
			coef := float64(int(next())%11 - 5)
			if coef != 0 {
				terms = append(terms, Term{Var: v, Coef: coef})
			}
		}
		if len(terms) == 0 {
			continue
		}
		rel := Rel(next() % 3)
		rhs := float64(int(next())%31 - 10)
		m.AddConstraint("c", terms, rel, rhs)
	}
	return m, data, true
}
