package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"partita/internal/budget"
)

// lexPair is a lexicographic pair of 0-1 programs: n binaries and one
// continuous variable c in [0, cHi], shared rows, and two objectives
// over the n binaries, then c.
type lexPair struct {
	n          int
	cHi        float64
	rows       []lexRow
	obj1, obj2 []float64
}

type lexRow struct {
	coef []float64 // n binaries, then c
	rel  Rel
	rhs  float64
}

// randomLexPair draws a small covering program shaped like the
// selector's: cover rows, at-most-one rows, a mixed row, and rows
// c ≥ k·x that charge the continuous variable the way an interface area
// is charged. Coefficients are small integers, so both objectives tie
// often.
func randomLexPair(rng *rand.Rand) lexPair {
	p := lexPair{n: 4 + rng.Intn(9), cHi: 2}
	// row appends a row; the pointer is valid until the next append.
	row := func(rel Rel, rhs float64) *lexRow {
		p.rows = append(p.rows, lexRow{coef: make([]float64, p.n+1), rel: rel, rhs: rhs})
		return &p.rows[len(p.rows)-1]
	}
	for i := 1 + rng.Intn(2); i > 0; i-- {
		r, sum := row(GE, 0), 0.0
		for j := 0; j < p.n; j++ {
			if rng.Intn(2) == 0 {
				r.coef[j] = float64(1 + rng.Intn(5))
				sum += r.coef[j]
			}
		}
		r.rhs = math.Floor(sum * (0.3 + 0.3*rng.Float64()))
	}
	for i := rng.Intn(3); i > 0; i-- {
		r := row(LE, 1)
		for k := 2 + rng.Intn(2); k > 0; k-- {
			r.coef[rng.Intn(p.n)] = 1
		}
	}
	if rng.Intn(2) == 0 {
		r := row(LE, float64(rng.Intn(4)))
		for j := 0; j < p.n; j++ {
			if rng.Intn(3) == 0 {
				r.coef[j] = float64(rng.Intn(7) - 3)
			}
		}
	}
	for i := 1 + rng.Intn(3); i > 0; i-- {
		r := row(LE, 0)
		r.coef[rng.Intn(p.n)] = float64(1 + rng.Intn(2))
		r.coef[p.n] = -1
	}
	p.obj1 = make([]float64, p.n+1)
	p.obj2 = make([]float64, p.n+1)
	for j := 0; j < p.n; j++ {
		p.obj1[j] = float64(rng.Intn(4))
		p.obj2[j] = float64(rng.Intn(5) - 2)
	}
	p.obj1[p.n] = 1
	p.obj2[p.n] = float64(rng.Intn(3) - 1)
	return p
}

// model builds the pair's rows with objective obj, plus extra rows.
func (p lexPair) model(obj []float64, extra ...lexRow) *Model {
	m := NewModel()
	for j := 0; j < p.n; j++ {
		m.AddBinary("x", obj[j])
	}
	m.AddVar("c", 0, p.cHi, obj[p.n])
	for _, r := range append(append([]lexRow(nil), p.rows...), extra...) {
		var terms []Term
		for j, a := range r.coef {
			if a != 0 {
				terms = append(terms, Term{VarID(j), a})
			}
		}
		if terms == nil {
			terms = []Term{{0, 0}}
		}
		m.AddConstraint("r", terms, r.rel, r.rhs)
	}
	return m
}

// enumerate minimizes obj over the pair's rows and extra rows by
// enumerating the binaries and, for each assignment, the interval the
// rows leave c. It reports the optimum and how many assignments reach
// it.
func (p lexPair) enumerate(obj []float64, extra ...lexRow) (best float64, ties int) {
	best = math.Inf(1)
	rows := append(append([]lexRow(nil), p.rows...), extra...)
	for mask := 0; mask < 1<<p.n; mask++ {
		lo, hi := 0.0, p.cHi
		ok := true
		for _, r := range rows {
			a := 0.0
			for j := 0; j < p.n; j++ {
				if mask&(1<<j) != 0 {
					a += r.coef[j]
				}
			}
			b, rest := r.coef[p.n], r.rhs-a
			switch {
			case b == 0:
				ok = r.rel == LE && rest >= -1e-9 || r.rel == GE && rest <= 1e-9
			case (r.rel == LE) == (b > 0):
				hi = math.Min(hi, rest/b)
			default:
				lo = math.Max(lo, rest/b)
			}
			if !ok || lo > hi+1e-9 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		c := lo
		if obj[p.n] < 0 {
			c = hi
		}
		v := obj[p.n] * c
		for j := 0; j < p.n; j++ {
			if mask&(1<<j) != 0 {
				v += obj[j]
			}
		}
		switch {
		case v < best-1e-9:
			best, ties = v, 1
		case v <= best+1e-9:
			ties++
		}
	}
	return best, ties
}

// sameSolve reports whether two solves are the same search: status,
// objective, nodes, counters and point.
func sameSolve(a, b *Solution) bool {
	if a.Status != b.Status || a.Nodes != b.Nodes || a.Stats != b.Stats || len(a.Values) != len(b.Values) {
		return false
	}
	if (a.Status == Optimal || a.Status == Feasible) && a.Objective != b.Objective {
		return false
	}
	for j := range a.Values {
		if a.Values[j] != b.Values[j] {
			return false
		}
	}
	return true
}

// TestSolveWithinAgainstBruteForce checks SolveWithin on random
// lexicographic pairs. Pass 1 minimizes the first objective, sometimes
// with a floor on its own objective, a valid cut that pass 2 does not
// carry. Pass 2 pins the first objective at pass 1's optimum + 1e-6 and
// minimizes the second. Started from pass 1's leaves, it must reach the
// status and optimum of a root solve and of the enumeration, with a
// point that passes Check. Where the contract does not hold (a nil,
// Feasible, Infeasible or wider prev), SolveWithin must be the root
// solve itself.
func TestSolveWithinAgainstBruteForce(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2020))
	var tied, cut, skipped, feasiblePrev int
	for trial := 0; trial < 300; trial++ {
		p := randomLexPair(rng)
		opt1, ties1 := p.enumerate(p.obj1)
		var extra []lexRow
		if !math.IsInf(opt1, 1) && rng.Intn(3) == 0 {
			extra = append(extra, lexRow{p.obj1, GE, opt1 - float64(rng.Intn(3)) - 1e-6})
			cut++
		}
		m1 := p.model(p.obj1, extra...)
		s1, err := m1.SolveCtx(ctx, budget.Budget{})
		if err != nil {
			t.Fatalf("trial %d: pass 1: %v", trial, err)
		}
		if math.IsInf(opt1, 1) {
			if s1.Status != Infeasible {
				t.Fatalf("trial %d: pass 1 %v, enumeration infeasible\n%s", trial, s1.Status, m1)
			}
			continue
		}
		if s1.Status != Optimal || !almost(s1.Objective, opt1, 1e-5) {
			t.Fatalf("trial %d: pass 1 %v %g, enumeration %g\n%s", trial, s1.Status, s1.Objective, opt1, m1)
		}
		if ties1 > 1 {
			tied++
		}

		limit := s1.Objective + 1e-6
		pin := lexRow{p.obj1, LE, limit}
		opt2, _ := p.enumerate(p.obj2, pin)
		m2 := p.model(p.obj2, pin)
		root, err := m2.SolveCtx(ctx, budget.Budget{})
		if err != nil {
			t.Fatalf("trial %d: root pass 2: %v", trial, err)
		}
		within, err := m2.SolveWithin(ctx, budget.Budget{}, s1, limit)
		if err != nil {
			t.Fatalf("trial %d: seeded pass 2: %v", trial, err)
		}
		for i, s := range []*Solution{root, within} {
			if s.Status != Optimal || !almost(s.Objective, opt2, 1e-5) {
				t.Fatalf("trial %d: pass 2 root %v %g, seeded %v %g, enumeration %g\n%s",
					trial, root.Status, root.Objective, within.Status, within.Objective, opt2, m2)
			}
			// The pin's 1e-6 slack lets an LP optimum sit within intEps
			// of an integer point, and a solve reports the LP objective
			// of the point it snaps: Check allows for that.
			if err := m2.Check(s, 1e-5); err != nil {
				t.Fatalf("trial %d: pass 2 (%s) fails Check: %v\n%s", trial, [2]string{"root", "seeded"}[i], err, m2)
			}
		}
		for _, l := range s1.leaves {
			if l.bound > limit {
				skipped++ // the seeded search leaves out part of the space
				break
			}
		}

		// Under a budget the seeded search stops like a root one: an
		// exhaustion error or an answer that passes Check.
		if s, err := m2.SolveWithin(ctx, budget.Budget{MaxNodes: 1}, s1, limit); err != nil {
			if !budget.IsExhausted(err) {
				t.Fatalf("trial %d: budgeted seeded pass 2: %v", trial, err)
			}
		} else if err := m2.Check(s, 1e-5); err != nil || s.Status != Optimal && (s.Status != Feasible || s.Stopped == nil) {
			t.Fatalf("trial %d: budgeted seeded pass 2 %v (stopped %v), Check: %v", trial, s.Status, s.Stopped, err)
		}

		// Fallbacks: a prev the budget stopped or an infeasible one is
		// not Optimal, and a prev with one more variable does not fit.
		if s, err := m1.SolveCtx(ctx, budget.Budget{MaxNodes: 1}); err == nil && s.Status != Optimal {
			checkFallback(t, trial, s.Status.String()+" prev", m2, s, limit)
			feasiblePrev++
		}
		sInf, err := p.model(p.obj1, lexRow{p.obj1, LE, opt1 - 1}).SolveCtx(ctx, budget.Budget{})
		if err != nil || sInf.Status != Infeasible {
			t.Fatalf("trial %d: pass 1 below its optimum: %v %v", trial, sInf, err)
		}
		checkFallback(t, trial, "infeasible prev", m2, sInf, limit)
		wide := p.model(p.obj1, extra...)
		wide.AddBinary("w", 1)
		sWide, err := wide.SolveCtx(ctx, budget.Budget{})
		if err != nil || sWide.Status != Optimal {
			t.Fatalf("trial %d: pass 1 with one more variable: %v %v", trial, sWide, err)
		}
		checkFallback(t, trial, "wider prev", m2, sWide, limit)
		checkFallback(t, trial, "nil prev", m2, nil, limit)
	}
	t.Logf("%d pairs with a tied pass-1 optimum, %d with a pass-1 cut, %d skipping a leaf, %d with a Feasible prev",
		tied, cut, skipped, feasiblePrev)
	if tied < 100 || cut < 60 || skipped < 100 || feasiblePrev < 50 {
		t.Fatalf("the trials exercise too little")
	}
}

// TestSolveWithinFloorAtOptimum: a floor on pass 1's objective at its
// optimum less 1e-6, as the selector's area floor installs, lets pass 1
// report an optimum up to 1e-6 below the true one, at an LP point within
// intEps of an integer one. A pin at that optimum + 1e-6 then sits at the
// true optimum, and pass 2's LPs still admit the points of a leaf whose
// bound is the true optimum plus rounding (3.0000000000000009 here, with
// the pass-2 optimum inside). The seeded search must keep that leaf.
func TestSolveWithinFloorAtOptimum(t *testing.T) {
	p := lexPair{n: 6, cHi: 2,
		rows: []lexRow{
			{coef: []float64{4, 3, 3, 4, 5, 4, 0}, rel: GE, rhs: 10},
			{coef: []float64{0, 1, 4, 0, 0, 3, 0}, rel: GE, rhs: 4},
			{coef: []float64{0, 0, 0, 0, 2, 0, -1}, rel: LE, rhs: 0},
		},
		obj1: []float64{2, 2, 1, 2, 0, 0, 1},
		obj2: []float64{0, -2, 0, 0, 0, 0, 0},
	}
	ctx := context.Background()
	opt1, _ := p.enumerate(p.obj1)
	s1, err := p.model(p.obj1, lexRow{p.obj1, GE, opt1 - 1e-6}).SolveCtx(ctx, budget.Budget{})
	if err != nil || s1.Status != Optimal || s1.Objective > opt1-1e-7 {
		t.Fatalf("pass 1: %v %v, want Optimal below the enumerated %g", s1, err, opt1)
	}
	limit := s1.Objective + 1e-6
	pin := lexRow{p.obj1, LE, limit}
	opt2, _ := p.enumerate(p.obj2, pin)
	m2 := p.model(p.obj2, pin)
	root, err1 := m2.SolveCtx(ctx, budget.Budget{})
	within, err2 := m2.SolveWithin(ctx, budget.Budget{}, s1, limit)
	if err1 != nil || err2 != nil || root.Status != Optimal || within.Status != Optimal ||
		!almost(root.Objective, opt2, 1e-5) || !almost(within.Objective, opt2, 1e-5) {
		t.Fatalf("pass 2 root %v %v, seeded %v %v, enumeration %g", root, err1, within, err2, opt2)
	}
}

// checkFallback asserts that SolveWithin from prev is the root solve.
func checkFallback(t *testing.T, trial int, what string, m *Model, prev *Solution, limit float64) {
	t.Helper()
	ctx := context.Background()
	root, err1 := m.SolveCtx(ctx, budget.Budget{})
	within, err2 := m.SolveWithin(ctx, budget.Budget{}, prev, limit)
	if err1 != nil || err2 != nil {
		t.Fatalf("trial %d, %s: root %v, seeded %v", trial, what, err1, err2)
	}
	if !sameSolve(root, within) {
		t.Fatalf("trial %d, %s: seeded %v %g in %d nodes, root %v %g in %d nodes",
			trial, what, within.Status, within.Objective, within.Nodes, root.Status, root.Objective, root.Nodes)
	}
}
