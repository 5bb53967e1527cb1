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
	// mat backs the rows of a and then the two cost rows.
	mat []float64
	// Scratch of one pivot: the pivot row's nonzero columns, and the
	// rows with a nonzero entry in the pivot column.
	cols, rows []int
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

// stats counts the relaxation as one cold LP.
func (r lpResult) stats() SearchStats {
	return SearchStats{ColdLPs: 1, PrimalPivots: int64(r.pivots)}
}

// solution is r as the answer of a one-node solve. An infeasible or
// unbounded relaxation reports the Bound branch and bound reports for
// those statuses: +Inf and -Inf, in either sense.
func (r lpResult) solution() *Solution {
	s := &Solution{Status: r.status, Objective: r.obj, Values: r.x, Nodes: 1, Bound: r.obj, Stats: r.stats()}
	switch r.status {
	case Infeasible:
		s.Bound = math.Inf(1)
	case Unbounded:
		s.Bound = math.Inf(-1)
	}
	return s
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

// arena carries one solve's relaxation storage from node to node of a
// branch-and-bound search, so a relaxation costs no allocations in
// steady state. solveRelaxation counts a node's rows and columns before
// it writes anything, and a buffer is replaced only when a node needs
// more than every earlier one, by one of exactly that size; nothing
// grows while a tableau is being filled. Arenas are not pooled across
// solves: a pool keeps the largest tableaux alive between solves and
// raises the resident set.
type arena struct {
	free  []int // model index of each structural column
	colOf []int // structural column of each model variable, -1 if fixed
	tab   tableau
}

// take returns buf resized to n zeroed elements, allocating exactly n
// when buf is too short.
func take[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// shift is the value v's structural column is measured from: its lower
// bound. The selection problems never use variables unbounded below; a
// -Inf lower bound becomes a large negative shift instead of a split
// column.
func (v variable) shift() float64 {
	if math.IsInf(v.lo, -1) {
		return -1e12
	}
	return v.lo
}

// relOf is the relation of tableau row i, whose shifted right-hand side
// is rhs: the model's own for constraint rows, ≤ for the upper-bound
// rows after them, with LE and GE swapped when a negative rhs negates
// the row.
func (m *Model) relOf(i int, rhs float64) Rel {
	rel := LE
	if i < len(m.cons) {
		rel = m.cons[i].rel
	}
	if rhs < 0 {
		switch rel {
		case LE:
			rel = GE
		case GE:
			rel = LE
		}
	}
	return rel
}

// solveRelaxation solves the LP relaxation of m with the variables in fx
// fixed to specific values (used by branch and bound; fx may be nil for
// the unrestricted relaxation). ar supplies reusable tableau storage and
// may be nil for a one-shot solve.
func (m *Model) solveRelaxation(fx *fixSet, lim limits, ar *arena) lpResult {
	if ar == nil {
		ar = &arena{}
	}
	n := len(m.vars)
	// Structural columns are the free variables, shifted to their lower
	// bounds; each one with a finite upper bound adds a ≤ row after the
	// constraint rows.
	free := take(ar.free, n)[:0]
	colOf := take(ar.colOf, n)
	nRows := len(m.cons)
	for j, v := range m.vars {
		colOf[j] = -1
		if fx.fixed(VarID(j)) {
			continue
		}
		colOf[j] = len(free)
		free = append(free, j)
		if !math.IsInf(v.hi, 1) {
			nRows++
		}
	}
	ar.free, ar.colOf = free, colOf
	nStruct := len(free)

	// Shifted right-hand sides come first: their signs settle each row's
	// relation, and with it the slack and artificial column counts that
	// size the tableau.
	t := &ar.tab
	t.b = take(t.b, nRows)
	for i, c := range m.cons {
		rhs := c.rhs
		for _, tm := range c.terms {
			if fv, ok := fx.get(tm.Var); ok {
				rhs -= tm.Coef * fv
			} else {
				rhs -= tm.Coef * m.vars[tm.Var].shift()
			}
		}
		t.b[i] = rhs
	}
	i := len(m.cons)
	for _, j := range free {
		if v := m.vars[j]; !math.IsInf(v.hi, 1) {
			t.b[i] = v.hi - v.shift()
			i++
		}
	}
	nSlack, nArt := 0, 0
	for i, rhs := range t.b {
		rel := m.relOf(i, rhs)
		if rel != EQ {
			nSlack++
		}
		if rel != LE {
			nArt++
		}
	}

	// Size the tableau: structural columns, then one slack/surplus per
	// inequality, then one artificial per GE/EQ row.
	nTot := nStruct + nSlack + nArt
	t.reset(nRows, nTot)

	slackAt := nStruct
	artAt := nStruct + nSlack
	// finish completes row i once its structural coefficients are
	// written; mx is the largest of their magnitudes.
	finish := func(i int, mx float64) {
		row := t.a[i]
		rel := m.relOf(i, t.b[i])
		coef := row[:nStruct]
		if t.b[i] < 0 {
			for k := range coef {
				coef[k] = -coef[k]
			}
			t.b[i] = -t.b[i]
		}
		// Row equilibration: scale each row so its largest magnitude is 1.
		if t.b[i] > mx {
			mx = t.b[i]
		}
		if mx > 1 {
			inv := 1 / mx
			for k := range coef {
				coef[k] *= inv
			}
			t.b[i] *= inv
		}
		switch rel {
		case LE:
			row[slackAt] = 1
			t.basis[i] = slackAt
			slackAt++
		case GE:
			row[slackAt] = -1
			slackAt++
			row[artAt] = 1
			t.artificial[artAt] = true
			t.basis[i] = artAt
			artAt++
		case EQ:
			row[artAt] = 1
			t.artificial[artAt] = true
			t.basis[i] = artAt
			artAt++
		}
	}
	// Write each row's structural coefficients straight into the tableau.
	for i, c := range m.cons {
		row := t.a[i]
		for _, tm := range c.terms {
			if col := colOf[tm.Var]; col >= 0 {
				row[col] += tm.Coef
			}
		}
		mx := 0.0
		for _, tm := range c.terms {
			if col := colOf[tm.Var]; col >= 0 {
				if a := math.Abs(row[col]); a > mx {
					mx = a
				}
			}
		}
		finish(i, mx)
	}
	i = len(m.cons)
	for col, j := range free {
		if !math.IsInf(m.vars[j].hi, 1) {
			t.a[i][col] = 1
			finish(i, 1)
			i++
		}
	}

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
			constObj += sgn * v.obj * v.shift()
		}
	}
	for col, j := range free {
		t.d[1][col] = sgn * m.vars[j].obj
	}
	// Price out phase-1 costs for the artificial basis.
	for i := range t.a {
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
	for j, v := range m.vars {
		if fv, ok := fx.get(VarID(j)); ok {
			x[j] = fv
		} else {
			x[j] = v.shift()
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

// reset sizes t to m rows and n columns, all zero, keeping b (already
// filled) and reusing the storage of earlier solves where it fits.
func (t *tableau) reset(m, n int) {
	t.m, t.n = m, n
	t.mat = take(t.mat, (m+2)*n)
	t.a = take(t.a, m)
	for i := range t.a {
		t.a[i] = t.mat[i*n : (i+1)*n : (i+1)*n]
	}
	t.d[0] = t.mat[m*n : (m+1)*n : (m+1)*n]
	t.d[1] = t.mat[(m+1)*n : (m+2)*n : (m+2)*n]
	t.obj = [2]float64{}
	t.basis = take(t.basis, m)
	t.artificial = take(t.artificial, n)
	t.cols = take(t.cols, n)[:0]
	t.rows = take(t.rows, m)[:0]
	t.pivots = 0
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
			// Deadline check every 256 pivots: cheap relative to the
			// pricing and ratio scans of a pivot, frequent enough that
			// even a single huge LP cannot overrun a deadline by much.
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
		// Ratio test, Bland tiebreak on lowest basis index. The scan
		// down the entering column also collects the rows the pivot
		// must update: those with a nonzero entry there.
		leave := -1
		best := math.Inf(1)
		rows := t.rows[:0]
		for i := 0; i < t.m; i++ {
			aij := t.a[i][enter]
			if aij == 0 {
				continue
			}
			rows = append(rows, i)
			if aij <= pivotEps {
				continue
			}
			ratio := t.b[i] / aij
			if ratio < best-1e-12 || (ratio < best+1e-12 && (leave < 0 || t.basis[i] < t.basis[leave])) {
				best = ratio
				leave = i
			}
		}
		t.rows = rows
		if leave < 0 {
			return Unbounded, nil
		}
		t.pivot(leave, enter, rows)
	}
	// Pivot cap exceeded. Surface it as a budget error rather than
	// silently returning a non-optimal basis; branch and bound converts
	// this into an anytime (Feasible) result.
	return Optimal, budget.ErrIterLimit
}

// pivot brings column q into the basis at row r. rows must list every
// row with a nonzero entry in column q (r may be among them). Only
// nonzeros are touched: a row whose column-q entry
// is zero, or a column where the scaled pivot row is zero, would be
// updated by subtracting zero. Every other update runs in the order of
// the dense row operation, so the tableau comes out as a dense pivot
// leaves it.
func (t *tableau) pivot(r, q int, rows []int) {
	t.pivots++
	row := t.a[r]
	inv := 1 / row[q]
	cols := t.cols[:0]
	for j, v := range row {
		if v != 0 {
			row[j] = v * inv
			cols = append(cols, j)
		}
	}
	t.cols = cols
	t.b[r] *= inv
	br := t.b[r]
	for _, i := range rows {
		if i == r {
			continue
		}
		ai := t.a[i]
		f := ai[q]
		for _, j := range cols {
			ai[j] -= f * row[j]
		}
		t.b[i] -= f * br
		if t.b[i] < 0 && t.b[i] > -1e-11 {
			t.b[i] = 0
		}
	}
	for k := range t.d {
		f := t.d[k][q]
		if f == 0 {
			continue
		}
		dk := t.d[k]
		for _, j := range cols {
			dk[j] -= f * row[j]
		}
		t.obj[k] += f * br
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
				rows := t.rows[:0]
				for r := 0; r < t.m; r++ {
					if t.a[r][j] != 0 {
						rows = append(rows, r)
					}
				}
				t.rows = rows
				t.pivot(i, j, rows)
				break
			}
		}
	}
}
