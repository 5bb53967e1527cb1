package ilp

import (
	"context"
	"math"
	"math/bits"
	"slices"

	"partita/internal/budget"
)

// The simplex solver works on a bounded-variable standard form:
//
//	minimize c·v  subject to  A·v = b,  0 ≤ v ≤ u,  b ≥ 0
//
// Before any tableau is built, a per-node presolve settles what the
// node's fixings decide on their own: a constraint they leave with one
// free variable becomes a bound on it, one they leave with none is
// checked and dropped, and a variable whose bounds meet is settled like
// a fixed one. The rows left then tighten the bounds of their free
// variables by their activity range, integer bounds rounding inward, or
// prove the node infeasible with no simplex at all. Only rows coupling
// two or more free variables reach the tableau. Each free variable is a
// column v measured up from its lower bound, with upper bound
// u = hi − lo; without a lower bound it is measured down from its upper
// bound, and with neither it is the difference of two columns. A
// branch-and-bound child starts from its parent's LP point: a column
// with a finite range whose parent value lies above the midpoint of the
// child's bounds starts complemented, at its upper bound. Slack,
// surplus, and artificial columns complete the rows, an artificial only
// where the start point violates a row. Phase 1 minimizes
// the sum of artificials; phase 2 minimizes the real cost. The ratio test stops the entering column
// where a basic variable reaches zero or its upper bound, or where the
// column reaches its own bound, which flips it there without a pivot.
// Bland's rule guarantees termination on degenerate instances.

const (
	pivotEps   = 1e-9 // smallest acceptable pivot magnitude (after row scaling)
	costEps    = 1e-9 // reduced-cost optimality tolerance
	feasEps    = 1e-7 // phase-1 residual, or presolve's row excess or bound overlap, treated as feasible
	intEps     = 1e-6 // integrality tolerance for branch and bound
	maxSimplex = 200000
	maxSweeps  = 8 // bound-propagation sweeps of one node's presolve
)

type tableau struct {
	m, n  int
	a     [][]float64
	b     []float64
	basis []int
	// cost rows: index 0 = phase-1 (artificial) costs, 1 = real costs.
	d   [2][]float64
	obj [2]float64
	// art is the first artificial column. Artificials are the last
	// columns, so phase 2 prices only the columns before art and none
	// can re-enter the basis.
	art int
	// ub[j] is column j's upper bound (+Inf for slack, surplus, and
	// artificial columns). flip[j] marks a complemented column: it
	// stands for ub[j] − v_j, the distance of v_j below its bound.
	ub   []float64
	flip []bool
	// pairs lists the two columns of each variable with no bound, its
	// positive and its negative part.
	pairs [][2]int
	// pivots and flips count pivots and bound flips since the last
	// reset; solvers fold them into SearchStats.
	pivots, flips int
	// mat backs the rows of a and then the two cost rows.
	mat []float64
	// nz holds one bitset of words words per column: a superset of the
	// rows where the column is nonzero. The ratio test walks the
	// entering column's set in ascending row order instead of reading
	// every row, and drops the rows it finds zero.
	nz    []uint64
	words int
	// Scratch of one pivot: the pivot row's nonzero columns, the rows
	// with a nonzero entry in the pivot column, and those rows as a
	// bitset.
	cols, rows []int
	mask       []uint64
	// neg is iterate's priced-column set: a bit per priced column whose
	// reduced cost is below -costEps. A pivot changes reduced costs only
	// in the pivot row's nonzero columns, and a bound flip or a zeroed
	// free-variable part only in its own column, so iterate rebuilds the
	// set once per call and then updates just those columns.
	neg []uint64
}

// lpResult is the outcome of one relaxation solve in model-variable space.
type lpResult struct {
	status Status
	obj    float64   // objective in the model's own sense
	x      []float64 // one value per model variable (fixed vars included)
	pivots int       // simplex pivots spent on this solve
	flips  int       // bound flips spent on this solve
	// presolved marks an Infeasible status presolve proved: no simplex
	// ran.
	presolved bool
	// err is non-nil when the solve was interrupted by a resource budget
	// (iteration limit or context deadline); status is then meaningless.
	err error
}

// stats counts the relaxation as one cold LP, and an infeasible one as
// a node outcome: proved by presolve or by phase 1.
func (r lpResult) stats() SearchStats {
	s := SearchStats{ColdLPs: 1, PrimalPivots: int64(r.pivots), BoundFlips: int64(r.flips)}
	if r.err == nil && r.status == Infeasible {
		if r.presolved {
			s.PresolveInfeasible = 1
		} else {
			s.LPInfeasible = 1
		}
	}
	return s
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
// (checked periodically inside the simplex loop), maxIter the iteration
// count of each phase, pivots and bound flips alike (0 = the package
// safety cap).
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
	// lo and hi are each model variable's bounds at this node after
	// presolve. settled marks the variables the node fixes or whose
	// bounds collapsed; their value is lo.
	lo, hi  []float64
	settled []bool
	live    []int // constraints coupling two or more free variables
	free    []int // model index of each structural column
	// neg marks the structural columns that count their variable
	// downward: from its upper bound, or as the negative part of a
	// variable with no bound at all.
	neg   []bool
	colOf []int        // first structural column of each model variable, -1 if settled
	val   []float64    // scratch: each structural column's value
	pend  []tightening // scratch: one row's new bounds in propagate
	tab   tableau
	// at is the point the tableau starts from, one value per model
	// variable, and up marks the structural columns that start
	// complemented at their upper bound.
	at []float64
	up []bool
}

// tightening is one variable's new bounds, pending until propagate has
// scanned the whole row that implies them.
type tightening struct {
	v      VarID
	lo, hi float64
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

// negated is the relation of a row after both sides are negated.
func (r Rel) negated() Rel {
	switch r {
	case LE:
		return GE
	case GE:
		return LE
	}
	return r
}

// presolve loads each model variable's bounds at this node into ar —
// the fixed value for the variables fx fixes — and tightens them with
// every constraint the fixings leave with one free variable. It drops
// such a constraint, and one left with no free variable after checking
// it against feasEps, so ar.live keeps only the constraints that couple
// two or more. A variable whose bounds collapse is settled at one value
// like a fixed one, which may leave more constraints with one free
// variable, so the scan repeats until no bounds collapse. Then
// propagate tightens bounds by the rows left; when that collapses a
// variable's bounds, the singleton scan runs again, up to maxSweeps
// times. It reports false when the node is infeasible.
func (m *Model) presolve(fx *fixSet, ar *arena) bool {
	n := len(m.vars)
	lo, hi, settled := take(ar.lo, n), take(ar.hi, n), take(ar.settled, n)
	ar.lo, ar.hi, ar.settled = lo, hi, settled
	for j, v := range m.vars {
		if fv, ok := fx.get(VarID(j)); ok {
			lo[j], hi[j], settled[j] = fv, fv, true
		} else {
			lo[j], hi[j], settled[j] = v.lo, v.hi, v.lo == v.hi
		}
	}
	live := take(ar.live, len(m.cons))
	for i := range live {
		live[i] = i
	}
	for sweep := 0; ; sweep++ {
		var ok bool
		if live, ok = m.dropSingletons(live, lo, hi, settled); !ok {
			return false
		}
		if sweep == maxSweeps {
			break
		}
		collapsed, ok := m.propagate(live, ar)
		if !ok {
			return false
		}
		if !collapsed {
			break
		}
	}
	ar.live = live
	return true
}

// dropSingletons is presolve's singleton scan over the constraints in
// live. It returns the ones that still couple two or more free
// variables, and false when one cannot be satisfied.
func (m *Model) dropSingletons(live []int, lo, hi []float64, settled []bool) ([]int, bool) {
	for collapsed := true; collapsed; {
		collapsed = false
		kept := live[:0]
		for _, i := range live {
			c := &m.cons[i]
			// r is the right-hand side net of the settled variables;
			// one is the free variable and coef its net coefficient,
			// unless one reads -2: the row couples two free variables.
			r, one, coef := c.rhs, -1, 0.0
			for _, tm := range c.terms {
				j := int(tm.Var)
				if settled[j] {
					r -= tm.Coef * lo[j]
				} else if one < 0 || one == j {
					one, coef = j, coef+tm.Coef
				} else {
					one = -2
					break
				}
			}
			if one == -2 {
				kept = append(kept, i)
				continue
			}
			rel := c.rel
			if coef == 0 {
				if (rel != GE && r < -feasEps) || (rel != LE && r > feasEps) {
					return nil, false
				}
				continue
			}
			if coef < 0 {
				rel = rel.negated()
			}
			bound := r / coef
			if rel != GE && bound < hi[one] {
				hi[one] = bound
			}
			if rel != LE && bound > lo[one] {
				lo[one] = bound
			}
			if lo[one] > hi[one]+feasEps || math.IsInf(lo[one], 1) || math.IsInf(hi[one], -1) {
				return nil, false
			}
			if lo[one] >= hi[one] {
				lo[one] = hi[one]
				settled[one] = true
				collapsed = true
			}
		}
		live = kept
	}
	return live, true
}

// propagate tightens the bounds of the free variables in the
// constraints live by each one's activity range over the current
// bounds (Savelsbergh, ORSA J. Computing 6(4), 1994). A row's
// tolerance is feasEps scaled by its largest magnitude, as the LP
// scales the row; gain rows reach 10^7. A row whose activity range
// misses its right-hand side by more than that proves the node
// infeasible. Otherwise the rest of the row at its least, or greatest,
// activity bounds each term, loosened by the same tolerance so that no
// point the LP accepts is cut off, and an integer variable's bounds
// round inward. A row may repeat a variable, so its new bounds are
// applied only once the whole row is scanned, against the bounds its
// activity used. It reports whether a variable's bounds collapsed,
// settling it, and false in ok when the node is infeasible.
func (m *Model) propagate(live []int, ar *arena) (collapsed, ok bool) {
	lo, hi, settled := ar.lo, ar.hi, ar.settled
	for _, i := range live {
		c := &m.cons[i]
		// The row's least and greatest activity: the finite part, and
		// how many terms are unbounded that way.
		minAct, maxAct := 0.0, 0.0
		minInf, maxInf := 0, 0
		// Plain comparisons, not math.Max: no operand is NaN, and scale
		// starts at 1 or more, so signed zeros cannot matter.
		scale := math.Abs(c.rhs)
		if scale < 1 {
			scale = 1
		}
		for _, tm := range c.terms {
			a := tm.Coef
			if a == 0 {
				continue
			}
			l, h := a*lo[tm.Var], a*hi[tm.Var]
			if a < 0 {
				l, h = h, l
			}
			if math.IsInf(l, -1) {
				minInf++
			} else {
				minAct += l
			}
			if math.IsInf(h, 1) {
				maxInf++
			} else {
				maxAct += h
			}
			if abs := math.Abs(a); abs > scale {
				scale = abs
			}
		}
		tol := feasEps * scale
		le, ge := c.rel != GE, c.rel != LE
		if (le && minInf == 0 && minAct > c.rhs+tol) || (ge && maxInf == 0 && maxAct < c.rhs-tol) {
			return false, false
		}
		pend := ar.pend[:0]
		for _, tm := range c.terms {
			a, j := tm.Coef, tm.Var
			if a == 0 || settled[j] {
				continue
			}
			l, h := a*lo[j], a*hi[j]
			if a < 0 {
				l, h = h, l
			}
			// The term a·x lies in [nl, nh]: the right-hand side less
			// the rest of the row, when no other term is unbounded.
			nl, nh := math.Inf(-1), math.Inf(1)
			if le {
				rest, inf := minAct-l, minInf
				if math.IsInf(l, -1) {
					rest, inf = minAct, inf-1
				}
				if inf == 0 {
					nh = c.rhs + tol - rest
				}
			}
			if ge {
				rest, inf := maxAct-h, maxInf
				if math.IsInf(h, 1) {
					rest, inf = maxAct, inf-1
				}
				if inf == 0 {
					nl = c.rhs - tol - rest
				}
			}
			if a > 0 {
				nl, nh = nl/a, nh/a
			} else {
				nl, nh = nh/a, nl/a
			}
			if m.vars[j].integer {
				nl, nh = math.Ceil(nl-intEps), math.Floor(nh+intEps)
			}
			if nl > lo[j] || nh < hi[j] {
				pend = append(pend, tightening{j, nl, nh})
			}
		}
		ar.pend = pend
		for _, p := range pend {
			j := p.v
			lo[j], hi[j] = math.Max(lo[j], p.lo), math.Min(hi[j], p.hi)
			if lo[j] > hi[j]+feasEps {
				return false, false
			}
			if lo[j] >= hi[j] {
				lo[j] = hi[j]
				collapsed = collapsed || !settled[j]
				settled[j] = true
			}
		}
	}
	return collapsed, true
}

// solveRelaxation solves the LP relaxation of m with the variables in fx
// fixed to specific values (used by branch and bound; fx may be nil for
// the unrestricted relaxation). start is the point the LP starts near,
// one value per model variable, or nil to start every column at zero:
// branch and bound passes a child its parent's LP point. Where it
// starts changes only which optimal vertex the LP lands on. ar supplies
// reusable tableau storage and may be nil for a one-shot solve.
func (m *Model) solveRelaxation(fx *fixSet, start []float64, lim limits, ar *arena) lpResult {
	if ar == nil {
		ar = &arena{}
	}
	if !m.presolve(fx, ar) {
		return lpResult{status: Infeasible, presolved: true}
	}
	n := len(m.vars)
	lo, hi := ar.lo, ar.hi
	// Structural columns are the free variables. From here on lo[j] is
	// the value variable j takes with its columns at zero and not
	// complemented: its lower bound, its upper bound if it has no lower
	// one, or 0 if it has neither, when a second, negated column carries
	// its negative part.
	free := take(ar.free, n)[:0]
	neg := ar.neg[:0]
	colOf := take(ar.colOf, n)
	for j := range m.vars {
		colOf[j] = -1
		if ar.settled[j] {
			continue
		}
		colOf[j] = len(free)
		free = append(free, j)
		neg = append(neg, false)
		if math.IsInf(lo[j], -1) {
			if math.IsInf(hi[j], 1) {
				lo[j] = 0
				free = append(free, j)
				neg = append(neg, true)
			} else {
				lo[j] = hi[j]
				neg[len(neg)-1] = true
			}
		}
	}
	ar.free, ar.neg, ar.colOf = free, neg, colOf
	nStruct := len(free)

	// The start point: lo, except that a column with a finite range whose
	// start value lies above the midpoint of the node's bounds starts at
	// its upper bound, complemented as flipColumn leaves a column.
	at := take(ar.at, n)
	copy(at, lo)
	up := take(ar.up, nStruct)
	if start != nil {
		for col, j := range free {
			if !neg[col] && !math.IsInf(hi[j], 1) && start[j] > (lo[j]+hi[j])/2 {
				at[j], up[col] = hi[j], true
			}
		}
	}
	ar.at, ar.up = at, up

	// Right-hand sides net of the start point come first: their signs
	// settle each row's relation, and with it the slack and artificial
	// column counts that size the tableau.
	t := &ar.tab
	nRows := len(ar.live)
	t.b = take(t.b, nRows)
	nSlack, nArt := 0, 0
	for k, i := range ar.live {
		c := &m.cons[i]
		rhs := c.rhs
		for _, tm := range c.terms {
			rhs -= tm.Coef * at[tm.Var]
		}
		t.b[k] = rhs
		rel := c.rel
		if rhs < 0 {
			rel = rel.negated()
		}
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
	for col, j := range free {
		if !neg[col] {
			t.ub[col] = hi[j] - lo[j]
		}
	}

	slackAt := nStruct
	artAt := nStruct + nSlack
	t.art = artAt
	// Write each row's structural coefficients straight into the
	// tableau, each variable's into its first column, negated where the
	// column starts complemented.
	for k, i := range ar.live {
		c := &m.cons[i]
		row := t.a[k]
		for _, tm := range c.terms {
			if col := colOf[tm.Var]; col >= 0 {
				if up[col] {
					row[col] -= tm.Coef
				} else {
					row[col] += tm.Coef
				}
				t.mark(k, col)
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
		rel := c.rel
		coef := row[:nStruct]
		if t.b[k] < 0 {
			rel = rel.negated()
			for q := range coef {
				coef[q] = -coef[q]
			}
			t.b[k] = -t.b[k]
		}
		// Row equilibration: scale each row so its largest magnitude is 1.
		if t.b[k] > mx {
			mx = t.b[k]
		}
		if mx > 1 {
			inv := 1 / mx
			for q := range coef {
				coef[q] *= inv
			}
			t.b[k] *= inv
		}
		switch rel {
		case LE:
			row[slackAt] = 1
			t.mark(k, slackAt)
			t.basis[k] = slackAt
			slackAt++
		case GE:
			row[slackAt] = -1
			t.mark(k, slackAt)
			slackAt++
			row[artAt] = 1
			t.mark(k, artAt)
			t.basis[k] = artAt
			artAt++
		case EQ:
			row[artAt] = 1
			t.mark(k, artAt)
			t.basis[k] = artAt
			artAt++
		}
	}

	// Real costs over structural columns (converted to minimization).
	sgn := 1.0
	if m.sense == Maximize {
		sgn = -1
	}
	constObj := 0.0
	for j, v := range m.vars {
		constObj += sgn * v.obj * at[j]
	}
	for col, j := range free {
		t.d[1][col] = sgn * m.vars[j].obj
		if up[col] {
			t.d[1][col] = -t.d[1][col]
			t.flip[col] = true
		}
	}
	// A downward column is the negation of what was written to its
	// variable's first column: that column itself, or the one before it
	// when the variable has two.
	for col, down := range neg {
		if !down {
			continue
		}
		src := col
		if col > 0 && free[col-1] == free[col] {
			src = col - 1
			t.pairs = append(t.pairs, [2]int{src, col})
		}
		for _, row := range t.a {
			row[col] = -row[src]
		}
		copy(t.colSet(col), t.colSet(src))
		t.d[1][col] = -t.d[1][src]
	}
	// Price out phase-1 costs for the artificial basis.
	for i := range t.a {
		if t.basis[i] >= t.art {
			for j := 0; j < nTot; j++ {
				t.d[0][j] -= t.a[i][j]
			}
			t.obj[0] += t.b[i]
		}
	}
	// Phase-1 cost of each artificial is 1; its reduced cost starts at 0
	// because its own column was subtracted above (identity column).
	for j := t.art; j < nTot; j++ {
		t.d[0][j]++
	}

	// Phase 1.
	st, err := t.iterate(0, true, lim)
	if err != nil {
		return lpResult{err: err, pivots: t.pivots, flips: t.flips}
	}
	if st == Unbounded {
		// A phase-1 objective bounded below by zero can never be
		// unbounded; treat as numerical failure → infeasible.
		return lpResult{status: Infeasible, pivots: t.pivots, flips: t.flips}
	}
	if t.obj[0] > feasEps {
		return lpResult{status: Infeasible, pivots: t.pivots, flips: t.flips}
	}
	t.driveOutArtificials()

	// Phase 2.
	st, err = t.iterate(1, false, lim)
	if err != nil {
		return lpResult{err: err, pivots: t.pivots, flips: t.flips}
	}
	if st == Unbounded {
		return lpResult{status: Unbounded, pivots: t.pivots, flips: t.flips}
	}

	// Extract each structural column's value, complemented ones from
	// their bound, and add it to its variable's base value. The result
	// vector outlives the arena's solve cycle (callers keep it for
	// incumbents), so it is allocated fresh rather than from the arena.
	val := take(ar.val, nStruct)
	ar.val = val
	for i, bi := range t.basis {
		if bi < nStruct {
			val[bi] = t.b[i]
		}
	}
	x := make([]float64, n)
	copy(x, lo)
	for col, j := range free {
		v := val[col]
		if t.flip[col] {
			v = t.ub[col] - v
		}
		if neg[col] {
			v = -v
		}
		x[j] += v
	}
	obj := t.obj[1] + constObj
	if m.sense == Maximize {
		obj = -obj
	}
	return lpResult{status: Optimal, obj: obj, x: x, pivots: t.pivots, flips: t.flips}
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
	t.art = n
	t.words = (m + 63) >> 6
	t.nz = take(t.nz, n*t.words)
	t.ub = take(t.ub, n)
	for j := range t.ub {
		t.ub[j] = math.Inf(1)
	}
	t.flip = take(t.flip, n)
	t.pairs = t.pairs[:0]
	t.cols = take(t.cols, n)[:0]
	t.rows = take(t.rows, m)[:0]
	t.pivots, t.flips = 0, 0
}

// colSet is the row set of column j.
func (t *tableau) colSet(j int) []uint64 {
	return t.nz[j*t.words : (j+1)*t.words : (j+1)*t.words]
}

// mark adds row i to the row set of column j.
func (t *tableau) mark(i, j int) {
	t.nz[j*t.words+i>>6] |= 1 << (i & 63)
}

// iterate runs simplex iterations on cost row k until optimal or
// unbounded. When allowArt is false, artificial columns may not enter
// the basis: pricing stops before them. Pricing uses Dantzig's rule
// (most negative reduced cost) for speed, falling back to Bland's rule
// after a burn-in to guarantee termination on degenerate instances.
// Both walk only the priced-column set, in ascending column order, so
// Dantzig's ties still go to the lowest index and Bland's rule takes
// the set's lowest column. An iteration is a pivot or a bound flip. The
// limits bound the iteration count and carry the wall-clock budget;
// exhausting either aborts with a typed error.
func (t *tableau) iterate(k int, allowArt bool, lim limits) (Status, error) {
	const blandAfter = 2000
	maxIter := lim.iterCap()
	priced := t.d[k]
	if !allowArt {
		priced = priced[:t.art]
	}
	neg := take(t.neg, (len(priced)+63)>>6)
	t.neg = neg
	for j, dj := range priced {
		if dj < -costEps {
			neg[j>>6] |= 1 << (j & 63)
		}
	}
	// reprice brings column j's bit up to date with its reduced cost.
	reprice := func(j int) {
		if j >= len(priced) {
			return
		}
		if priced[j] < -costEps {
			neg[j>>6] |= 1 << (j & 63)
		} else {
			neg[j>>6] &^= 1 << (j & 63)
		}
	}
	for iter := 0; iter < maxIter; iter++ {
		if iter&0xff == 0xff {
			// Deadline check every 256 iterations: cheap relative to the
			// pricing and ratio scans of a pivot, frequent enough that
			// even a single huge LP cannot overrun a deadline by much.
			if err := budget.Check(lim.ctx); err != nil {
				return Optimal, err
			}
		}
		enter := -1
		if iter < blandAfter {
			best := -costEps
			for w, word := range neg {
				for ; word != 0; word &= word - 1 {
					j := w<<6 | bits.TrailingZeros64(word)
					if priced[j] < best {
						best = priced[j]
						enter = j
					}
				}
			}
		} else {
			for w, word := range neg {
				if word != 0 {
					enter = w<<6 | bits.TrailingZeros64(word)
					break
				}
			}
		}
		if enter < 0 {
			return Optimal, nil
		}
		// Ratio test, Bland tiebreak on lowest basis index: the step
		// stops where a basic variable falls to zero or, with a finite
		// bound, rises to it. The walk down the entering column's row set
		// also collects the rows a pivot or flip must update: those with
		// a nonzero entry there, in ascending order as a full scan of the
		// column would find them.
		leave, toBound := -1, false
		best := math.Inf(1)
		rows := t.rows[:0]
		set := t.colSet(enter)
		for w, word := range set {
			for ; word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				aij := t.a[i][enter]
				if aij == 0 {
					set[w] &^= 1 << (i & 63)
					continue
				}
				rows = append(rows, i)
				var ratio float64
				if aij > pivotEps {
					ratio = t.b[i] / aij
				} else if u := t.ub[t.basis[i]]; aij < -pivotEps && u < math.Inf(1) {
					ratio = (u - t.b[i]) / -aij
				} else {
					continue
				}
				if ratio < best-1e-12 || (ratio < best+1e-12 && (leave < 0 || t.basis[i] < t.basis[leave])) {
					best = ratio
					leave = i
					toBound = aij < 0
				}
			}
		}
		t.rows = rows
		if u := t.ub[enter]; u < math.Inf(1) && u < best+1e-12 {
			// The entering column reaches its own bound first, or ties:
			// flip it there, no pivot needed.
			t.flipColumn(enter, rows)
			reprice(enter)
			continue
		}
		if leave < 0 {
			if t.basicPartner(enter) {
				// Not a ray: both parts grow and the variable stays put.
				// The exact reduced cost is zero; what priced the column
				// in was rounding.
				t.d[0][enter], t.d[1][enter] = 0, 0
				reprice(enter)
				continue
			}
			return Unbounded, nil
		}
		if toBound {
			t.complementRow(leave)
		}
		t.pivot(leave, enter, rows)
		for _, j := range t.cols {
			reprice(j)
		}
	}
	// Iteration cap exceeded. Surface it as a budget error rather than
	// silently returning a non-optimal basis; branch and bound converts
	// this into an anytime (Feasible) result.
	return Optimal, budget.ErrIterLimit
}

// basicPartner reports whether column q is one part of a variable with
// no bound whose other part is basic.
func (t *tableau) basicPartner(q int) bool {
	for _, p := range t.pairs {
		if q == p[0] || q == p[1] {
			return slices.Contains(t.basis, p[0]+p[1]-q)
		}
	}
	return false
}

// flipColumn moves nonbasic column q to its bound: it complements the
// column, v_q → ub[q] − v_q, which negates its entries and reduced
// costs and moves each right-hand side and objective by ub[q] times
// the column. rows must list every row with a nonzero entry in column q.
func (t *tableau) flipColumn(q int, rows []int) {
	t.flips++
	u := t.ub[q]
	for _, i := range rows {
		ai := t.a[i]
		t.b[i] -= ai[q] * u
		ai[q] = -ai[q]
		if t.b[i] < 0 && t.b[i] > -1e-11 {
			t.b[i] = 0
		}
	}
	for k := range t.d {
		t.obj[k] += t.d[k][q] * u
		t.d[k][q] = -t.d[k][q]
	}
	t.flip[q] = !t.flip[q]
}

// complementRow complements the variable basic in row r, which is
// about to leave at its bound: the row is negated, keeping the basic
// column's unit entry, and its right-hand side becomes the variable's
// distance below the bound. The variable leaves at zero in its new
// sense, so pivot can then proceed as usual.
func (t *tableau) complementRow(r int) {
	row := t.a[r]
	for j, v := range row {
		if v != 0 {
			row[j] = -v
		}
	}
	bv := t.basis[r]
	row[bv] = 1
	t.b[r] = t.ub[bv] - t.b[r]
	t.flip[bv] = !t.flip[bv]
}

// pivot brings column q into the basis at row r. rows must list every
// row with a nonzero entry in column q, r among them. Only nonzeros are
// touched: a row whose column-q entry is zero, or a column where the
// scaled pivot row is zero, would be updated by subtracting zero. Every
// other update runs in the order of the dense row operation, so the
// tableau comes out as a dense pivot leaves it. Fill-in lands only in
// those rows of those columns, so each such column's row set gains the
// rows; column q's is rebuilt, since only row r and rounding are left
// in it.
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
	mask := take(t.mask, t.words)
	t.mask = mask
	for _, i := range rows {
		mask[i>>6] |= 1 << (i & 63)
	}
	for _, j := range cols {
		set := t.colSet(j)
		for w, word := range mask {
			set[w] |= word
		}
	}
	set := t.colSet(q)
	clear(set)
	set[r>>6] |= 1 << (r & 63)
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
		if ai[q] != 0 {
			set[i>>6] |= 1 << (i & 63) // rounding left in the unit column
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
		if t.basis[i] < t.art {
			continue
		}
		for j := 0; j < t.art; j++ {
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
