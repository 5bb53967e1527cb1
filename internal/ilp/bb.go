package ilp

import (
	"container/heap"
	"context"
	"math"

	"partita/internal/budget"
)

// Solve optimizes the model with no resource budget. Models with binary
// variables are solved by best-first branch and bound over LP
// relaxations; pure LPs are solved directly. The returned Solution is
// provably optimal when Status is Optimal.
func (m *Model) Solve() (*Solution, error) {
	return m.SolveCtx(context.Background(), budget.Budget{})
}

// SolveCtx optimizes the model under a resource budget, making the
// branch-and-bound solver anytime:
//
//   - the context's deadline/cancellation and bud.MaxNodes bound the
//     wall-clock and node work;
//   - on budget exhaustion with an incumbent, the incumbent is returned
//     with Status Feasible, the best proven Bound, and the exhaustion
//     reason in Stopped;
//   - on exhaustion with no incumbent, a typed error wrapping one of the
//     budget package sentinels is returned, so callers can degrade to a
//     heuristic instead of failing.
//
// The search is serial best-first and visits nodes in a fixed,
// reproducible order; bud.Parallelism is ignored.
func (m *Model) SolveCtx(ctx context.Context, bud budget.Budget) (*Solution, error) {
	return m.solve(ctx, bud, []*bbNode{{v: -1, bound: math.Inf(-1)}})
}

// SolveWithin solves the model like SolveCtx, but searches only the
// parts of an earlier search that can hold a point of interest. An
// Optimal minimization keeps the leaves its branch and bound retired
// without proving them infeasible, each with its proven bound; together
// with the infeasible ones they cover the whole 0-1 space. SolveWithin
// solves no root: its search starts from one open node per leaf of prev
// whose bound is at most limit, with that leaf's fixings.
//
// The caller asserts the contract: prev is an Optimal minimization over
// the same variables, and every point this model accepts whose objective
// in prev's model is at most limit is a point prev's model accepts. A
// lexicographic second pass meets it when it adds to the first pass's
// constraints a row pinning the first objective at most limit: such a
// point lies in some leaf of prev, and that leaf's bound is at most
// limit. Valid cuts that only prev's model carries keep the contract
// when they exclude no such point. An LP accepts a row that misses its
// right-hand side by up to feasEps at the row's scale, so the pinned
// model admits points a little above limit; SolveWithin also keeps
// every leaf whose bound exceeds limit by at most
// feasEps·max(1, |limit|).
//
// When prev is nil, not Optimal, keeps no leaves (a Maximize model or a
// pure LP) or has another number of variables, SolveWithin solves from
// the root like SolveCtx. Budgets, the anytime stop and Stats behave as
// in SolveCtx.
func (m *Model) SolveWithin(ctx context.Context, bud budget.Budget, prev *Solution, limit float64) (*Solution, error) {
	if prev == nil || prev.Status != Optimal || len(prev.leaves) == 0 || len(prev.Values) != len(m.vars) {
		return m.SolveCtx(ctx, bud)
	}
	limit += feasEps * math.Max(1, math.Abs(limit))
	var roots []*bbNode
	for _, l := range prev.leaves {
		if l.bound <= limit {
			n := *l.node
			n.bound = math.Inf(-1)
			roots = append(roots, &n)
		}
	}
	return m.solve(ctx, bud, roots)
}

// solve runs branch and bound from the open nodes roots, or solves the
// relaxation directly when the model has no integer variable.
func (m *Model) solve(ctx context.Context, bud budget.Budget, roots []*bbNode) (*Solution, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	if err := budget.Check(ctx); err != nil {
		return nil, err
	}
	lim := limits{ctx: ctx, maxIter: bud.MaxSimplexIter}
	hasInt := false
	for _, v := range m.vars {
		if v.integer {
			hasInt = true
			break
		}
	}
	if !hasInt {
		r := m.solveRelaxation(nil, nil, lim, nil)
		if r.err != nil {
			return nil, r.err
		}
		return r.solution(), nil
	}
	return m.branchAndBound(ctx, bud, roots)
}

// bbNode is one open subproblem: a parent pointer plus this node's own
// binary fixing, and the parent relaxation bound used for best-first
// ordering. The full fixing set of a node is the chain walk back to the
// root — a copy-on-write path that costs one small struct per child
// instead of the full map copy a per-node fixing map would need. Nodes
// are immutable once pushed, except that a node keeps its LP point when
// it branches, before its children exist; siblings share their
// ancestors' chain, and each child's LP starts from its parent's point.
type bbNode struct {
	parent *bbNode
	v      VarID   // variable fixed at this node; -1 at the root
	val    float64 // value v is fixed to
	bound  float64 // relaxation bound in minimization sense
	depth  int32
	// x is the node's LP point, kept when the node branches.
	x []float64
}

// leaf is a subtree the search retired without proving it infeasible:
// the node whose fixings define it, and a lower bound, in minimization
// sense, on the objective of every point it holds.
type leaf struct {
	node  *bbNode
	bound float64
}

// fixSet is a reusable dense view of one node's fixing chain, giving
// solveRelaxation O(1) lookups without allocating per node: load walks
// the chain (O(depth)) and clears only the entries the previous node
// touched. One solve owns one fixSet.
type fixSet struct {
	val     []float64
	set     []bool
	touched []VarID
}

// load rebuilds the view for node's chain over a model with n variables.
func (f *fixSet) load(n int, node *bbNode) {
	if len(f.set) < n {
		f.val = make([]float64, n)
		f.set = make([]bool, n)
	}
	for _, v := range f.touched {
		f.set[v] = false
	}
	f.touched = f.touched[:0]
	for nd := node; nd != nil && nd.v >= 0; nd = nd.parent {
		if !f.set[nd.v] {
			f.set[nd.v] = true
			f.val[nd.v] = nd.val
			f.touched = append(f.touched, nd.v)
		}
	}
}

// get reports the fixed value of v, if any. A nil fixSet has no
// fixings (the pure-LP entry point).
func (f *fixSet) get(v VarID) (float64, bool) {
	if f == nil || !f.set[v] {
		return 0, false
	}
	return f.val[v], true
}

// fixed reports whether v is fixed.
func (f *fixSet) fixed(v VarID) bool { return f != nil && f.set[v] }

type nodeHeap []*bbNode

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound
	}
	return h[i].depth > h[j].depth // deeper first on ties: reach incumbents sooner
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*bbNode)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// pickBranch chooses the branching variable of a fractional relaxation
// point: among free fractional binaries, the one with the largest
// objective impact scaled by how fractional it is — on fixed-charge
// instances this branches on the area-carrying indicator variables
// first, which tightens the bound fastest. Returns -1 when every
// integer variable is integral (candidate incumbent).
func (m *Model) pickBranch(x []float64, fx *fixSet) VarID {
	branch := VarID(-1)
	bestScore := 0.0
	for j, v := range m.vars {
		if !v.integer {
			continue
		}
		if fx.fixed(VarID(j)) {
			continue
		}
		frac := math.Abs(x[j] - math.Round(x[j]))
		if frac <= intEps {
			continue
		}
		score := frac * (1 + math.Abs(v.obj))
		if branch < 0 || score > bestScore {
			bestScore = score
			branch = VarID(j)
		}
	}
	return branch
}

// roundExact copies an integral-within-tolerance LP point, snapping its
// integer variables exactly.
func (m *Model) roundExact(lp []float64) []float64 {
	x := make([]float64, len(lp))
	copy(x, lp)
	for j, v := range m.vars {
		if v.integer {
			x[j] = math.Round(x[j])
		}
	}
	return x
}

// branchAndBound searches best-first from the open nodes roots.
func (m *Model) branchAndBound(ctx context.Context, bud budget.Budget, roots []*bbNode) (*Solution, error) {
	// Internally minimize; flip at the end if maximizing.
	toMin := func(obj float64) float64 {
		if m.sense == Maximize {
			return -obj
		}
		return obj
	}
	lim := limits{ctx: ctx, maxIter: bud.MaxSimplexIter}

	incumbentObj := math.Inf(1)
	var incumbentX []float64
	nodes := 0
	var stats SearchStats
	var leaves []leaf

	fx := &fixSet{}
	ar := &arena{}

	open := &nodeHeap{}
	heap.Init(open)
	for _, nd := range roots {
		heap.Push(open, nd)
	}

	// tryIncumbent records x (already integral, snapped exactly) as the
	// incumbent if it beats the current one. nodeBound is the relaxation
	// bound of the node that produced x; the global proven bound is its
	// minimum with the best open-node bound.
	tryIncumbent := func(x []float64, objMin, nodeBound float64) {
		if objMin >= incumbentObj {
			return
		}
		incumbentObj = objMin
		incumbentX = x
		if m.onIncumbent == nil {
			return
		}
		lb := nodeBound
		if open.Len() > 0 && (*open)[0].bound < lb {
			lb = (*open)[0].bound
		}
		lb = math.Min(lb, objMin)
		obj, bnd := objMin, lb
		if m.sense == Maximize {
			obj, bnd = -obj, -bnd
		}
		m.onIncumbent(Progress{Objective: obj, Bound: bnd, Nodes: nodes,
			Values: append([]float64(nil), x...)})
	}

	// stop assembles the anytime result when a budget expires: the
	// incumbent (if any) with the tightest proven bound still open, or
	// the typed exhaustion error when no integral point was ever found.
	stop := func(reason error, localBound float64) (*Solution, error) {
		if incumbentX == nil {
			return nil, reason
		}
		lb := math.Min(localBound, incumbentObj)
		for _, nd := range *open {
			if nd.bound < lb {
				lb = nd.bound
			}
		}
		obj, bound := incumbentObj, lb
		if m.sense == Maximize {
			obj, bound = -obj, -bound
		}
		return &Solution{
			Status: Feasible, Objective: obj, Values: incumbentX,
			Nodes: nodes, Bound: bound, Stopped: reason, Stats: stats,
		}, nil
	}

	// Best-first order means the popped node's bound is the global proven
	// bound over the whole remaining tree; stream its (monotone) rises.
	lastBound := math.Inf(-1)
	emitBound := func(lb float64) {
		if m.onBound == nil {
			return
		}
		lb = math.Min(lb, incumbentObj)
		if math.IsInf(lb, 0) || lb <= lastBound+1e-9 {
			return
		}
		lastBound = lb
		obj, bnd := incumbentObj, lb
		if m.sense == Maximize {
			obj, bnd = -obj, -bnd
		}
		m.onBound(Progress{Objective: obj, Bound: bnd, Nodes: nodes})
	}

	for open.Len() > 0 {
		node := heap.Pop(open).(*bbNode)
		emitBound(node.bound)
		if node.bound >= incumbentObj-1e-9 {
			leaves = append(leaves, leaf{node, node.bound})
			continue // cannot improve on the incumbent
		}
		if err := budget.Check(ctx); err != nil {
			return stop(err, node.bound)
		}
		if bud.MaxNodes > 0 && nodes >= bud.MaxNodes {
			return stop(budget.ErrNodeLimit, node.bound)
		}
		nodes++
		fx.load(len(m.vars), node)
		var start []float64
		if node.parent != nil {
			start = node.parent.x
		}
		r := m.solveRelaxation(fx, start, lim, ar)
		stats.Add(r.stats())
		if r.err != nil {
			return stop(r.err, node.bound)
		}
		switch r.status {
		case Infeasible:
			continue
		case Unbounded:
			// A relaxation unbounded below with binaries still free can
			// only come from continuous variables; the MILP is unbounded.
			return &Solution{Status: Unbounded, Nodes: nodes, Bound: math.Inf(-1), Stats: stats}, nil
		}
		bound := toMin(r.obj)
		if bound >= incumbentObj-1e-9 {
			stats.BoundPruned++
			leaves = append(leaves, leaf{node, bound})
			continue
		}
		branch := m.pickBranch(r.x, fx)
		if branch < 0 {
			// Integral: candidate incumbent.
			stats.Integral++
			leaves = append(leaves, leaf{node, bound})
			tryIncumbent(m.roundExact(r.x), bound, bound)
			continue
		}
		stats.Branched++
		node.x = r.x
		// Opportunistic rounding: a nearest-integer snapshot of the
		// fractional relaxation often satisfies the constraints outright
		// and seeds the incumbent long before a dive bottoms out —
		// essential for anytime behaviour under tight deadlines.
		if x, obj, ok := m.roundToFeasible(r.x); ok {
			tryIncumbent(x, toMin(obj), bound)
		}
		for _, val := range [...]float64{1, 0} {
			heap.Push(open, &bbNode{
				parent: node,
				v:      branch,
				val:    val,
				bound:  bound,
				depth:  node.depth + 1,
			})
		}
	}

	if incumbentX == nil {
		// The tree is exhausted without a single integral point. Nodes
		// whose LP relaxation was feasible change nothing: the branching
		// loop only abandons a subproblem once its relaxation is
		// infeasible or its every binary fixing is enumerated, so an
		// LP-feasible region that contains no integral point is — as a
		// 0-1 program — simply Infeasible.
		return &Solution{Status: Infeasible, Nodes: nodes, Bound: math.Inf(1), Stats: stats}, nil
	}
	obj := incumbentObj
	if m.sense == Maximize {
		obj = -obj
		leaves = nil // SolveWithin takes only a minimization's leaves
	}
	return &Solution{Status: Optimal, Objective: obj, Values: incumbentX, Nodes: nodes, Bound: obj, Stats: stats, leaves: leaves}, nil
}

// roundToFeasible snaps every integer variable of an LP point to its
// nearest integer and reports whether the result satisfies all bounds
// and constraints; obj is its objective in the model's own sense.
func (m *Model) roundToFeasible(lp []float64) (x []float64, obj float64, ok bool) {
	x = make([]float64, len(lp))
	copy(x, lp)
	moved := false
	for j, v := range m.vars {
		if !v.integer {
			continue
		}
		r := math.Round(x[j])
		if math.Abs(x[j]-r) > intEps {
			moved = true
		}
		x[j] = r
	}
	if !moved {
		// Every integer variable was already integral within tolerance:
		// the snapped point is the relaxation itself, which the caller's
		// integral-incumbent path handles exactly. Skip the full
		// constraint scan rather than re-verify and re-attempt the same
		// incumbent.
		return nil, 0, false
	}
	obj, ok = m.evalPoint(x)
	if !ok {
		return nil, 0, false
	}
	return x, obj, true
}

// evalPoint checks x against every variable bound and constraint of the
// model and, when it satisfies them all, returns its objective in the
// model's own sense.
func (m *Model) evalPoint(x []float64) (obj float64, ok bool) {
	const tol = 1e-7
	for j, v := range m.vars {
		if x[j] < v.lo-tol || x[j] > v.hi+tol {
			return 0, false
		}
	}
	for _, c := range m.cons {
		sum := 0.0
		for _, t := range c.terms {
			sum += t.Coef * x[t.Var]
		}
		scale := 1 + math.Abs(c.rhs)
		switch c.rel {
		case LE:
			if sum > c.rhs+tol*scale {
				return 0, false
			}
		case GE:
			if sum < c.rhs-tol*scale {
				return 0, false
			}
		case EQ:
			if math.Abs(sum-c.rhs) > tol*scale {
				return 0, false
			}
		}
	}
	for j, v := range m.vars {
		obj += v.obj * x[j]
	}
	return obj, true
}
