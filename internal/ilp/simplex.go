package ilp

import (
	"context"
	"math"

	"partita/internal/budget"
)

// The simplex solver works on a standard-form tableau:
//
//	minimize c·x  subject to  A·x = b,  x ≥ 0,  b ≥ 0
//
// built from the model by shifting each variable to its lower bound,
// turning finite upper bounds into explicit ≤ rows, and adding slack,
// surplus, and artificial columns. Phase 1 minimizes the sum of
// artificials; phase 2 minimizes the real cost. Bland's rule guarantees
// termination on degenerate instances.

const (
	pivotEps   = 1e-9 // smallest acceptable pivot magnitude (after row scaling)
	costEps    = 1e-9 // reduced-cost optimality tolerance
	feasEps    = 1e-7 // phase-1 residual treated as feasible
	intEps     = 1e-6 // integrality tolerance for branch and bound
	maxSimplex = 200000
)

type tableau struct {
	m, n  int
	a     [][]float64
	b     []float64
	basis []int
	// cost rows: index 0 = phase-1 (artificial) costs, 1 = real costs.
	d   [2][]float64
	obj [2]float64
	// artificial[j] marks artificial columns, which may never re-enter
	// the basis in phase 2.
	artificial []bool
	// pivots counts pivot applications since the last reset; solvers
	// fold it into SearchStats.
	pivots int
}

// lpResult is the outcome of one relaxation solve in model-variable space.
type lpResult struct {
	status Status
	obj    float64   // objective in the model's own sense
	x      []float64 // one value per model variable (fixed vars included)
	pivots int       // simplex pivots spent on this solve
	// err is non-nil when the solve was interrupted by a resource budget
	// (pivot limit or context deadline); status is then meaningless.
	err error
}

// limits bounds one relaxation solve: ctx carries the wall-clock budget
// (checked periodically inside the pivot loop), maxIter the pivot count
// (0 = the package safety cap).
type limits struct {
	ctx     context.Context
	maxIter int
}

func (l limits) iterCap() int {
	if l.maxIter > 0 {
		return l.maxIter
	}
	return maxSimplex
}

// arena recycles the tableau and scratch buffers of solveRelaxation
// across branch-and-bound nodes. Buffers are handed out bump-allocator
// style and reclaimed all at once by reset() at the start of the next
// solve, so a relaxation costs no tableau allocations in steady state.
// Each solve owns one arena; a nil arena degrades every request
// to a plain make (the one-shot pure-LP path).
type arena struct {
	floats []float64
	nf     int
	ints   []int
	ni     int
	bools  []bool
	nb     int
	rows   []lpRow
	aRows  [][]float64
	tab    tableau
}

func (a *arena) reset() {
	if a != nil {
		a.nf, a.ni, a.nb = 0, 0, 0
	}
}

// f64 hands out a zeroed float slice of length n. Growing the backing
// store mid-solve is safe: slices handed out earlier keep the old array,
// which stays valid for the rest of this solve.
func (a *arena) f64(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	if a.nf+n > len(a.floats) {
		a.floats = make([]float64, 2*len(a.floats)+n)
		a.nf = 0
	}
	s := a.floats[a.nf : a.nf+n : a.nf+n]
	a.nf += n
	for i := range s {
		s[i] = 0
	}
	return s
}

func (a *arena) int(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	if a.ni+n > len(a.ints) {
		a.ints = make([]int, 2*len(a.ints)+n)
		a.ni = 0
	}
	s := a.ints[a.ni : a.ni+n : a.ni+n]
	a.ni += n
	for i := range s {
		s[i] = 0
	}
	return s
}

func (a *arena) bool(n int) []bool {
	if a == nil {
		return make([]bool, n)
	}
	if a.nb+n > len(a.bools) {
		a.bools = make([]bool, 2*len(a.bools)+n)
		a.nb = 0
	}
	s := a.bools[a.nb : a.nb+n : a.nb+n]
	a.nb += n
	for i := range s {
		s[i] = false
	}
	return s
}

// rowBuf hands out an empty row slice with capacity for n rows.
func (a *arena) rowBuf(n int) []lpRow {
	if a == nil {
		return make([]lpRow, 0, n)
	}
	if cap(a.rows) < n {
		a.rows = make([]lpRow, 0, n)
	}
	return a.rows[:0]
}

// rowPtrs hands out the slice-of-rows backbone of the tableau matrix.
func (a *arena) rowPtrs(n int) [][]float64 {
	if a == nil {
		return make([][]float64, n)
	}
	if cap(a.aRows) < n {
		a.aRows = make([][]float64, n)
	}
	return a.aRows[:n]
}

// tableauBuf hands out the (single) reusable tableau shell.
func (a *arena) tableauBuf() *tableau {
	if a == nil {
		return &tableau{}
	}
	return &a.tab
}

// lpRow is one constraint row of the relaxation in shifted free-column
// space, before standard-form assembly.
type lpRow struct {
	coef []float64 // over free columns
	rel  Rel
	rhs  float64
}

// solveRelaxation solves the LP relaxation of m with the variables in fx
// fixed to specific values (used by branch and bound; fx may be nil for
// the unrestricted relaxation). ar supplies reusable tableau storage and
// may be nil for a one-shot solve.
func (m *Model) solveRelaxation(fx *fixSet, lim limits, ar *arena) lpResult {
	ar.reset()
	n := len(m.vars)
	// Shift amounts and which variables are free.
	shift := ar.f64(n)
	free := ar.int(n)[:0] // model index of each structural column
	colOf := ar.int(n)
	for j := range colOf {
		colOf[j] = -1
	}
	for j, v := range m.vars {
		if fx.fixed(VarID(j)) {
			continue
		}
		lo := v.lo
		if math.IsInf(lo, -1) {
			// The selection problems never use free variables; treat a
			// -Inf lower bound as a large negative shift instead of
			// splitting the column.
			lo = -1e12
		}
		shift[j] = lo
		colOf[j] = len(free)
		free = append(free, j)
	}

	// Exact row count: one per model constraint plus one upper-bound row
	// per free variable with a finite hi — lets the arena-backed rows
	// slice be sized once, so addRow never reallocates it.
	maxRows := len(m.cons)
	for _, j := range free {
		if !math.IsInf(m.vars[j].hi, 1) {
			maxRows++
		}
	}
	rows := ar.rowBuf(maxRows)
	addRow := func(coef []float64, rel Rel, rhs float64) {
		if rhs < 0 {
			for i := range coef {
				coef[i] = -coef[i]
			}
			rhs = -rhs
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		rows = append(rows, lpRow{coef: coef, rel: rel, rhs: rhs})
	}

	for _, c := range m.cons {
		coef := ar.f64(len(free))
		rhs := c.rhs
		for _, t := range c.terms {
			if fv, ok := fx.get(t.Var); ok {
				rhs -= t.Coef * fv
				continue
			}
			rhs -= t.Coef * shift[t.Var]
			coef[colOf[t.Var]] += t.Coef
		}
		addRow(coef, c.rel, rhs)
	}
	// Finite upper bounds become explicit rows in shifted space.
	for col, j := range free {
		hi := m.vars[j].hi
		if math.IsInf(hi, 1) {
			continue
		}
		coef := ar.f64(len(free))
		coef[col] = 1
		addRow(coef, LE, hi-shift[j])
	}

	// Row equilibration: scale each row so its largest magnitude is 1.
	for i := range rows {
		mx := math.Abs(rows[i].rhs)
		for _, v := range rows[i].coef {
			if a := math.Abs(v); a > mx {
				mx = a
			}
		}
		if mx > 1 {
			inv := 1 / mx
			for k := range rows[i].coef {
				rows[i].coef[k] *= inv
			}
			rows[i].rhs *= inv
		}
	}

	// Assemble the tableau: structural columns, then one slack/surplus
	// per inequality, then one artificial per GE/EQ row.
	nStruct := len(free)
	nSlack := 0
	nArt := 0
	for _, r := range rows {
		if r.rel != EQ {
			nSlack++
		}
		if r.rel != LE {
			nArt++
		}
	}
	nTot := nStruct + nSlack + nArt
	t := ar.tableauBuf()
	t.m = len(rows)
	t.n = nTot
	t.a = ar.rowPtrs(len(rows))
	t.b = ar.f64(len(rows))
	t.basis = ar.int(len(rows))
	t.artificial = ar.bool(nTot)
	t.d[0] = ar.f64(nTot)
	t.d[1] = ar.f64(nTot)
	t.obj[0], t.obj[1] = 0, 0

	// Real costs over structural columns (converted to minimization).
	sgn := 1.0
	if m.sense == Maximize {
		sgn = -1
	}
	constObj := 0.0
	for j, v := range m.vars {
		if fv, ok := fx.get(VarID(j)); ok {
			constObj += sgn * v.obj * fv
		} else {
			constObj += sgn * v.obj * shift[j]
		}
	}
	for col, j := range free {
		t.d[1][col] = sgn * m.vars[j].obj
	}

	slackAt := nStruct
	artAt := nStruct + nSlack
	for i, r := range rows {
		t.a[i] = ar.f64(nTot)
		copy(t.a[i], r.coef)
		t.b[i] = r.rhs
		switch r.rel {
		case LE:
			t.a[i][slackAt] = 1
			t.basis[i] = slackAt
			slackAt++
		case GE:
			t.a[i][slackAt] = -1
			slackAt++
			t.a[i][artAt] = 1
			t.artificial[artAt] = true
			t.basis[i] = artAt
			artAt++
		case EQ:
			t.a[i][artAt] = 1
			t.artificial[artAt] = true
			t.basis[i] = artAt
			artAt++
		}
	}
	// Price out phase-1 costs for the artificial basis.
	for i := range rows {
		if t.artificial[t.basis[i]] {
			for j := 0; j < nTot; j++ {
				t.d[0][j] -= t.a[i][j]
			}
			t.obj[0] += t.b[i]
		}
	}
	// Phase-1 cost of each artificial is 1; its reduced cost starts at 0
	// because its own column was subtracted above (identity column).
	for j := 0; j < nTot; j++ {
		if t.artificial[j] {
			t.d[0][j]++
		}
	}

	// Phase 1.
	t.pivots = 0
	st, err := t.iterate(0, true, lim)
	if err != nil {
		return lpResult{err: err, pivots: t.pivots}
	}
	if st == Unbounded {
		// A phase-1 objective bounded below by zero can never be
		// unbounded; treat as numerical failure → infeasible.
		return lpResult{status: Infeasible, pivots: t.pivots}
	}
	if t.obj[0] > feasEps {
		return lpResult{status: Infeasible, pivots: t.pivots}
	}
	t.driveOutArtificials()

	// Phase 2.
	st, err = t.iterate(1, false, lim)
	if err != nil {
		return lpResult{err: err, pivots: t.pivots}
	}
	if st == Unbounded {
		return lpResult{status: Unbounded, pivots: t.pivots}
	}

	// Extract structural values and unshift. The result vector outlives
	// the arena's solve cycle (callers keep it for incumbents), so it is
	// allocated fresh rather than from the arena.
	x := make([]float64, n)
	for j := range m.vars {
		if fv, ok := fx.get(VarID(j)); ok {
			x[j] = fv
		} else {
			x[j] = shift[j]
		}
	}
	for i, bi := range t.basis {
		if bi < nStruct {
			x[free[bi]] += t.b[i]
		}
	}
	obj := t.obj[1] + constObj
	if m.sense == Maximize {
		obj = -obj
	}
	return lpResult{status: Optimal, obj: obj, x: x, pivots: t.pivots}
}

// iterate runs simplex pivots on cost row k until optimal or unbounded.
// When allowArt is false, artificial columns may not enter the basis.
// Pivoting uses Dantzig's rule (most negative reduced cost) for speed,
// falling back to Bland's rule after a burn-in to guarantee termination
// on degenerate instances. The limits bound the pivot count and carry
// the wall-clock budget; exhausting either aborts with a typed error.
func (t *tableau) iterate(k int, allowArt bool, lim limits) (Status, error) {
	const blandAfter = 2000
	maxIter := lim.iterCap()
	for iter := 0; iter < maxIter; iter++ {
		if iter&0xff == 0xff {
			// Deadline check every 256 pivots: cheap relative to a pivot
			// over the whole tableau, frequent enough that even a single
			// huge LP cannot overrun a deadline by much.
			if err := budget.Check(lim.ctx); err != nil {
				return Optimal, err
			}
		}
		enter := -1
		if iter < blandAfter {
			best := -costEps
			for j := 0; j < t.n; j++ {
				if !allowArt && t.artificial[j] {
					continue
				}
				if t.d[k][j] < best {
					best = t.d[k][j]
					enter = j
				}
			}
		} else {
			for j := 0; j < t.n; j++ {
				if !allowArt && t.artificial[j] {
					continue
				}
				if t.d[k][j] < -costEps {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			return Optimal, nil
		}
		// Ratio test, Bland tiebreak on lowest basis index.
		leave := -1
		best := math.Inf(1)
		for i := 0; i < t.m; i++ {
			aij := t.a[i][enter]
			if aij <= pivotEps {
				continue
			}
			ratio := t.b[i] / aij
			if ratio < best-1e-12 || (ratio < best+1e-12 && (leave < 0 || t.basis[i] < t.basis[leave])) {
				best = ratio
				leave = i
			}
		}
		if leave < 0 {
			return Unbounded, nil
		}
		t.pivot(leave, enter)
	}
	// Pivot cap exceeded. Surface it as a budget error rather than
	// silently returning a non-optimal basis; branch and bound converts
	// this into an anytime (Feasible) result.
	return Optimal, budget.ErrIterLimit
}

// pivot brings column q into the basis at row r.
func (t *tableau) pivot(r, q int) {
	t.pivots++
	piv := t.a[r][q]
	inv := 1 / piv
	row := t.a[r]
	for j := range row {
		row[j] *= inv
	}
	t.b[r] *= inv
	for i := 0; i < t.m; i++ {
		if i == r {
			continue
		}
		f := t.a[i][q]
		if f == 0 {
			continue
		}
		ai := t.a[i]
		for j := range ai {
			ai[j] -= f * row[j]
		}
		t.b[i] -= f * t.b[r]
		if t.b[i] < 0 && t.b[i] > -1e-11 {
			t.b[i] = 0
		}
	}
	for k := 0; k < 2; k++ {
		f := t.d[k][q]
		if f == 0 {
			continue
		}
		dk := t.d[k]
		for j := range dk {
			dk[j] -= f * row[j]
		}
		t.obj[k] += f * t.b[r]
	}
	t.basis[r] = q
}

// driveOutArtificials pivots any artificial variable that is still basic
// after phase 1 out of the basis when possible. Rows whose artificial
// cannot be driven out are redundant (all structural coefficients zero)
// and harmless because the artificial's value is zero and its column may
// not re-enter.
func (t *tableau) driveOutArtificials() {
	for i := 0; i < t.m; i++ {
		if !t.artificial[t.basis[i]] {
			continue
		}
		for j := 0; j < t.n; j++ {
			if t.artificial[j] {
				continue
			}
			if math.Abs(t.a[i][j]) > 1e-7 {
				t.pivot(i, j)
				break
			}
		}
	}
}
