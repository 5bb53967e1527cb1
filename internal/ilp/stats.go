package ilp

// SearchStats aggregates low-level solver counters across one solve.
// They exist so benchmarks and operators can explain *why* a wall-clock
// number moved — more nodes, or more simplex work per node — and cost
// nothing on the hot path beyond integer adds.
type SearchStats struct {
	// ColdLPs counts relaxations solved from scratch by the two-phase
	// primal simplex: one per branch-and-bound node.
	ColdLPs int64
	// WarmLPs always reads 0: every relaxation is solved cold.
	//
	// Deprecated: kept so existing readers compile; the solver has no
	// warm-start LP path.
	WarmLPs int64
	// PrimalPivots counts simplex pivots.
	PrimalPivots int64
	// BoundFlips counts simplex iterations that moved the entering
	// variable to its own bound instead of pivoting.
	BoundFlips int64

	// How each node ended. In a branch-and-bound search that runs to
	// completion they sum to its nodes; a node a budget interrupts, or
	// whose relaxation is unbounded, has none. A one-node LP solve
	// counts only an infeasible outcome.
	//
	// PresolveInfeasible nodes were proved infeasible by presolve,
	// with no simplex iteration.
	PresolveInfeasible int64
	// LPInfeasible nodes were proved infeasible by phase 1.
	LPInfeasible int64
	// BoundPruned nodes had an LP bound no better than the incumbent.
	BoundPruned int64
	// Integral nodes had an integral LP optimum: a candidate incumbent.
	Integral int64
	// Branched nodes had a fractional LP optimum and two children.
	Branched int64
}

// Add folds o into s.
func (s *SearchStats) Add(o SearchStats) {
	s.ColdLPs += o.ColdLPs
	s.PrimalPivots += o.PrimalPivots
	s.BoundFlips += o.BoundFlips
	s.PresolveInfeasible += o.PresolveInfeasible
	s.LPInfeasible += o.LPInfeasible
	s.BoundPruned += o.BoundPruned
	s.Integral += o.Integral
	s.Branched += o.Branched
}

// Pivots is the total simplex pivot count.
func (s SearchStats) Pivots() int64 { return s.PrimalPivots }
