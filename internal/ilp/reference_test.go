package ilp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"partita/internal/budget"
)

// Check is the tests' feasibility checker. It verifies that a solution
// satisfies every constraint, bound and integrality requirement of the
// model within tol, and that the reported objective matches the
// assignment. It covers both Optimal and Feasible (anytime) solutions and
// returns nil for the other statuses (there is nothing to check).
func (m *Model) Check(s *Solution, tol float64) error {
	if s == nil {
		return errors.New("ilp: nil solution")
	}
	if s.Status != Optimal && s.Status != Feasible {
		return nil
	}
	if len(s.Values) != len(m.vars) {
		return fmt.Errorf("ilp: solution has %d values for %d variables", len(s.Values), len(m.vars))
	}
	obj := 0.0
	for j, v := range m.vars {
		x := s.Values[j]
		if x < v.lo-tol || x > v.hi+tol {
			return fmt.Errorf("ilp: %s = %g violates bounds [%g, %g]", v.name, x, v.lo, v.hi)
		}
		if v.integer && math.Abs(x-math.Round(x)) > tol {
			return fmt.Errorf("ilp: %s = %g is not integral", v.name, x)
		}
		obj += v.obj * x
	}
	if math.Abs(obj-s.Objective) > tol*(1+math.Abs(obj)) {
		return fmt.Errorf("ilp: reported objective %g differs from recomputed %g", s.Objective, obj)
	}
	for _, c := range m.cons {
		sum := 0.0
		for _, t := range c.terms {
			sum += t.Coef * s.Values[t.Var]
		}
		scale := 1 + math.Abs(c.rhs)
		switch c.rel {
		case LE:
			if sum > c.rhs+tol*scale {
				return fmt.Errorf("ilp: constraint %q violated: %g > %g", c.name, sum, c.rhs)
			}
		case GE:
			if sum < c.rhs-tol*scale {
				return fmt.Errorf("ilp: constraint %q violated: %g < %g", c.name, sum, c.rhs)
			}
		case EQ:
			if math.Abs(sum-c.rhs) > tol*scale {
				return fmt.Errorf("ilp: constraint %q violated: %g != %g", c.name, sum, c.rhs)
			}
		}
	}
	return nil
}

// referenceLP solves the LP relaxation of m (integrality ignored) the
// textbook way, sharing no code with solveRelaxation or iterate. Every
// constraint is a row whatever its variables' bounds, every finite
// upper bound an explicit ≤ row, and each row gets a slack and, for ≥
// and = rows, an artificial. The dense kernel of pivot_test.go runs
// both phases on a tableau with no finite column bound, so it never
// flips a column. It reports the status, the objective and the point.
func referenceLP(m *Model) (Status, float64, []float64, error) {
	// One column per variable with a lower bound (v = x − lo), one per
	// variable with only an upper bound (v = hi − x), and a positive and
	// a negative part for a free one.
	type column struct {
		v    int
		sign float64
	}
	var cols []column
	base := make([]float64, len(m.vars))
	type row struct {
		coef map[int]float64
		rel  Rel
		rhs  float64
	}
	var rows []row
	for j, v := range m.vars {
		switch {
		case !math.IsInf(v.lo, -1):
			base[j] = v.lo
			cols = append(cols, column{j, 1})
			if !math.IsInf(v.hi, 1) {
				rows = append(rows, row{coef: map[int]float64{len(cols) - 1: 1}, rel: LE, rhs: v.hi - v.lo})
			}
		case !math.IsInf(v.hi, 1):
			base[j] = v.hi
			cols = append(cols, column{j, -1})
		default:
			cols = append(cols, column{j, 1}, column{j, -1})
		}
	}
	var pairs [][2]int
	for k := 1; k < len(cols); k++ {
		if cols[k].v == cols[k-1].v {
			pairs = append(pairs, [2]int{k - 1, k})
		}
	}
	for _, c := range m.cons {
		r := row{coef: map[int]float64{}, rel: c.rel, rhs: c.rhs}
		for _, tm := range c.terms {
			r.rhs -= tm.Coef * base[tm.Var]
			for k, col := range cols {
				if col.v == int(tm.Var) {
					r.coef[k] += col.sign * tm.Coef
				}
			}
		}
		rows = append(rows, r)
	}

	nStruct := len(cols)
	nArt := 0
	for i := range rows {
		if rows[i].rhs < 0 {
			rows[i].rhs = -rows[i].rhs
			for k := range rows[i].coef {
				rows[i].coef[k] = -rows[i].coef[k]
			}
			switch rows[i].rel {
			case LE:
				rows[i].rel = GE
			case GE:
				rows[i].rel = LE
			}
		}
		if rows[i].rel != LE {
			nArt++
		}
	}
	mRows := len(rows)
	n := nStruct + mRows + nArt
	t := &tableau{m: mRows, n: n, a: make([][]float64, mRows), b: make([]float64, mRows),
		basis: make([]int, mRows), art: nStruct + mRows, ub: make([]float64, n), flip: make([]bool, n), pairs: pairs}
	t.d[0], t.d[1] = make([]float64, n), make([]float64, n)
	for j := range t.ub {
		t.ub[j] = math.Inf(1)
	}
	art := nStruct + mRows
	for i, r := range rows {
		a := make([]float64, n)
		scale := r.rhs
		for k, c := range r.coef {
			a[k] = c
			scale = math.Max(scale, math.Abs(c))
		}
		b := r.rhs
		if scale > 1 {
			for k := range a {
				a[k] /= scale
			}
			b /= scale
		}
		// Every row has a slack column; an = row's stays at zero.
		switch r.rel {
		case LE:
			a[nStruct+i] = 1
			t.basis[i] = nStruct + i
		case GE:
			a[nStruct+i] = -1
		}
		if r.rel != LE {
			a[art] = 1
			t.basis[i] = art
			for k := range a {
				t.d[0][k] -= a[k]
			}
			t.d[0][art]++
			t.obj[0] += b
			art++
		}
		t.a[i], t.b[i] = a, b
	}
	for k, c := range cols {
		t.d[1][k] = c.sign * m.vars[c.v].obj
	}

	const maxIter = 20000
	st, _ := denseIterate(t, 0, true, maxIter)
	if t.pivots >= maxIter {
		return 0, 0, nil, fmt.Errorf("reference phase 1 did not finish in %d pivots", maxIter)
	}
	if st == Unbounded || t.obj[0] > feasEps {
		return Infeasible, 0, nil, nil
	}
	denseDriveOutArtificials(t)
	t.pivots = 0
	if st, _ = denseIterate(t, 1, false, maxIter); st == Unbounded {
		return Unbounded, 0, nil, nil
	}
	if t.pivots >= maxIter {
		return 0, 0, nil, fmt.Errorf("reference phase 2 did not finish in %d pivots", maxIter)
	}
	x := append([]float64(nil), base...)
	for i, bv := range t.basis {
		if bv < nStruct {
			x[cols[bv].v] += cols[bv].sign * t.b[i]
		}
	}
	obj := 0.0
	for j, v := range m.vars {
		obj += v.obj * x[j]
	}
	return Optimal, obj, x, nil
}

// checkAgainstReference solves m with SolveCtx, with solveRelaxation
// started from two points, and with referenceLP. One start has every
// column with a finite range at its upper bound, the other is point,
// as branch and bound starts a child from its parent's LP point; where
// an LP starts may change the vertex it lands on, not what it proves.
// It returns the status they all agree on, and reports the first
// disagreement with the reference: in status, in objective beyond 1e-6
// relative, or an optimal point that fails Check.
func checkAgainstReference(m *Model, point []float64) (Status, error) {
	st, obj, _, err := referenceLP(m)
	if err != nil {
		return 0, err
	}
	agree := func(name string, s *Solution) error {
		if s.Status != st {
			return fmt.Errorf("%s says %v (objective %g), reference %v (objective %g)", name, s.Status, s.Objective, st, obj)
		}
		if st != Optimal {
			return nil
		}
		if math.Abs(s.Objective-obj) > 1e-6*math.Max(1, math.Abs(obj)) {
			return fmt.Errorf("%s objective %.12g, reference %.12g", name, s.Objective, obj)
		}
		if err := m.Check(s, 1e-6); err != nil {
			return fmt.Errorf("%s: optimal point fails Check: %v", name, err)
		}
		return nil
	}
	s, err := m.SolveCtx(context.Background(), budget.Budget{})
	if err != nil {
		return 0, fmt.Errorf("SolveCtx: %v", err)
	}
	if err := agree("SolveCtx", s); err != nil {
		return 0, err
	}
	upper := make([]float64, len(m.vars))
	for j, v := range m.vars {
		upper[j] = v.hi
	}
	for _, start := range [...]struct {
		name string
		x    []float64
	}{{"the upper bounds", upper}, {"the decoded point", point}} {
		r := m.solveRelaxation(nil, start.x, limits{ctx: context.Background()}, nil)
		if r.err != nil {
			return 0, fmt.Errorf("LP from %s: %v", start.name, r.err)
		}
		if err := agree("LP from "+start.name, r.solution()); err != nil {
			return 0, err
		}
	}
	return st, nil
}

// decodeLP derives a small continuous LP from raw bytes: byte 0 → 1..6
// variables, byte 1 → 0..7 constraints, byte 2 → whether to negate the
// objective; then per variable a bound kind (unit, finite non-unit,
// shifted, lo == hi, one-sided either way, free) and a point inside its
// bounds, and per constraint a term count that may be zero, term
// variables that may repeat, a relation and a right-hand side. Seven right-hand sides in
// eight hold at the variables' points, so most LPs are feasible; the
// eighth is drawn at random. Coefficients, costs and random right-hand
// sides are small signed integers. Variables fixed by lo == hi, or by
// singleton rows pinning them, leave rows with one free variable
// behind. It also returns the variables' points.
//
// With gains, costs and the coefficients of gain rows are also scaled
// by gains spread like the GSM model's 1..126 087, so a row can pair a
// coefficient of 1 with one of 126 087. As in the selection model,
// where gains multiply 0-1 variables in ≥ rows, a gain row is an
// inequality over variables with two finite bounds. Outside that domain
// the LPs are ill-posed at the solvers' tolerances, and the two
// disagreed in about one LP in 2 000: a variable unbounded in either
// direction in a row with coefficients of 10⁵ magnifies rounding past
// Check's 1e-6 in both, and an equality with such coefficients that
// presolve solves exactly leaves the reference free to miss it by
// 10⁻⁵, inside the tolerance of a row scaled by 10⁶. Inside it, about
// five LPs in a million still disagree; in each one examined, the
// solver's answer is exact and the reference's is not: a false
// "unbounded" from reduced-cost rounding against costs of 10⁵–10⁶, or a
// point that spends a large row's tolerance.
func decodeLP(data []byte, gains bool) (*Model, []float64) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	spread := [...]float64{1, 2, 3, 7, 47, 1021, 22240, 126087}
	gain := func() float64 {
		if g := next(); gains && g%2 == 0 {
			return spread[g/2%len(spread)]
		}
		return 1
	}
	inf := math.Inf(1)
	nv := 1 + next()%6
	nc := next() % 8
	sgn := 1.0
	if next()%2 == 1 {
		sgn = -1
	}
	m := NewModel()
	point := make([]float64, nv)
	var bounded []int
	for j := range point {
		kind := next()
		a := float64(next()%9 - 4)
		w := float64(1 + next()%5)
		frac := float64(next()%5) / 4
		var lo, hi float64
		switch kind % 8 {
		case 0:
			lo, hi = 0, 1
		case 1:
			lo, hi = 0, w
		case 2:
			lo, hi = a, a+w
		case 3:
			lo, hi = a, a
		case 4:
			lo, hi = a, inf
		case 5:
			lo, hi = -inf, a
		case 6:
			lo, hi = -inf, inf
		case 7:
			lo, hi = 0, inf
		}
		switch {
		case !math.IsInf(lo, -1) && !math.IsInf(hi, 1):
			point[j] = lo + frac*(hi-lo)
			bounded = append(bounded, j)
		case !math.IsInf(lo, -1):
			point[j] = lo + frac*w
		case !math.IsInf(hi, 1):
			point[j] = hi - frac*w
		default:
			point[j] = a
		}
		m.AddVar(fmt.Sprintf("x%d", j), lo, hi, sgn*float64(next()%21-10)*gain())
	}
	for c := 0; c < nc; c++ {
		terms := make([]Term, next()%(nv+2))
		rel := Rel(next() % 3)
		gainRow := next()%2 == 0 && gains && rel != EQ && len(bounded) > 0
		at := 0.0
		for k := range terms {
			j, coef := next()%nv, float64(next()%11-5)
			if g := gain(); gainRow {
				j, coef = bounded[j%len(bounded)], coef*g
			}
			terms[k] = Term{Var: VarID(j), Coef: coef}
			at += coef * point[j]
		}
		rhs, slack := float64(next()%21-10)*gain(), float64(next()%3)
		if mode := next(); mode%8 != 7 {
			switch rel {
			case LE:
				rhs = at + slack
			case GE:
				rhs = at - slack
			case EQ:
				rhs = at
			}
		}
		m.AddConstraint(fmt.Sprintf("c%d", c), terms, rel, rhs)
	}
	return m, point
}

// lpFeatures names the features of m the differential tests must
// cover.
func lpFeatures(m *Model) map[string]bool {
	f := map[string]bool{}
	for _, v := range m.vars {
		switch {
		case v.lo == v.hi:
			f["lo == hi"] = true
		case math.IsInf(v.lo, -1):
			f["-Inf lower bound"] = true
		case math.IsInf(v.hi, 1):
			f["infinite upper bound"] = true
		case v.hi-v.lo != 1:
			f["finite non-unit bound"] = true
		}
	}
	for _, c := range m.cons {
		seen := map[VarID]bool{}
		lo, hi := math.Inf(1), 0.0
		for _, tm := range c.terms {
			if seen[tm.Var] {
				f["duplicate-term row"] = true
			}
			seen[tm.Var] = true
			if a := math.Abs(tm.Coef); a > 0 {
				lo, hi = math.Min(lo, a), math.Max(hi, a)
			}
		}
		switch len(seen) {
		case 0:
			f["empty row"] = true
		case 1:
			f["singleton row"] = true
		}
		if c.rel == EQ {
			f["EQ row"] = true
		}
		if hi >= 1e5*lo {
			f["gain spread"] = true
		}
	}
	return f
}

// TestLPMatchesReference: on 2 000 random small LPs the solver, started
// cold and from two start points, and the explicit-row reference agree
// on the status and, when optimal, on the objective to 1e-6 relative,
// and every optimal point passes Check.
// The LPs cover every bound kind, singleton, empty and duplicate-term
// rows, and GSM-like gain spreads; the test counts them and each status.
func TestLPMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	count := map[string]int{}
	for trial := 0; trial < 2000; trial++ {
		data := make([]byte, 32+rng.Intn(224))
		rng.Read(data)
		m, point := decodeLP(data, true)
		st, err := checkAgainstReference(m, point)
		if err != nil {
			t.Fatalf("trial %d: %v\nmodel:\n%s", trial, err, m)
		}
		for f := range lpFeatures(m) {
			count[f]++
		}
		count[st.String()]++
	}
	t.Logf("LPs per feature and status: %v", count)
	for _, f := range []string{"lo == hi", "-Inf lower bound", "infinite upper bound", "finite non-unit bound",
		"duplicate-term row", "empty row", "singleton row", "EQ row", "gain spread",
		Optimal.String(), Infeasible.String(), Unbounded.String()} {
		if count[f] < 100 {
			t.Errorf("only %d LPs with %q", count[f], f)
		}
	}
}

// FuzzLP: an LP decoded from arbitrary bytes, with finite non-unit
// bounds, lo == hi, one-sided and free variables, and rows that
// collapse to one variable, solves to the explicit-row reference's
// status and objective from every start checkAgainstReference tries,
// and its optimal point passes Check. Its seeds live in
// testdata/fuzz/FuzzLP: a chain of collapsing rows that presolve
// settles completely, bound flips around one coupling row, and free
// variables. Coefficients stay small (no gain spreads; see decodeLP).
func FuzzLP(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, point := decodeLP(data, false)
		if _, err := checkAgainstReference(m, point); err != nil {
			t.Fatalf("%v\nmodel:\n%s", err, m)
		}
	})
}
