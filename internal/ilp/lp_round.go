package ilp

import (
	"context"
	"errors"

	"partita/internal/budget"
)

// ErrNoRounding is returned by SolveLPRound when the root relaxation is
// fractional and nearest-integer rounding violates a constraint: there
// is no answer without branch and bound.
var ErrNoRounding = errors.New("ilp: LP rounding produced no feasible point")

// BoundError is the concrete error SolveLPRound returns when rounding
// fails after a successfully solved relaxation: no feasible point, but
// the relaxation optimum is still a proven bound on the ILP optimum.
// errors.Is(err, ErrNoRounding) matches it; errors.As extracts the
// bound, which stays a valid lower bound even though rounding produced
// no point.
type BoundError struct {
	// Bound is the proven relaxation bound, in the model's own sense.
	Bound float64
	// X is the fractional relaxation optimum (caller-owned copy), so a
	// structure-aware caller can attempt its own repair — the generic
	// nearest-integer snap failed, but a caller that knows what the
	// variables mean usually can do better.
	X []float64
	// Stats counts the one relaxation solved, as Solution.Stats would.
	Stats SearchStats
}

func (e *BoundError) Error() string { return ErrNoRounding.Error() }

// Unwrap makes errors.Is(err, ErrNoRounding) succeed on a BoundError.
func (e *BoundError) Unwrap() error { return ErrNoRounding }

// SolveLPRound solves only the root LP relaxation and tries to turn it
// into an integral answer without any branching. It is the
// opportunistic-rounding step that branch-and-bound already applies at
// every node, promoted to a standalone solve. The portfolio no longer
// races it; outside tests it runs only under selector.Analysis.LPRound,
// which the benchmark times as its root-LP cost:
//
//   - an infeasible or unbounded relaxation proves the same status for
//     the 0-1 program (the relaxation only widens the feasible set);
//   - an integral relaxation optimum is the proven ILP optimum
//     (Status Optimal, Bound == Objective);
//   - a fractional optimum is snapped to the nearest integers; when the
//     snapped point satisfies every constraint it is returned as
//     Feasible with the LP objective as the proven Bound, so Gap()
//     reports exactly how far from optimal it can be;
//   - otherwise a *BoundError (matching ErrNoRounding) that still
//     carries the proven relaxation bound.
//
// One simplex solve, one node: Solution.Nodes is always 1 and
// Solution.Stats counts one cold LP with its pivots and bound flips.
// The context deadline and bud.MaxSimplexIter bound the relaxation
// itself.
func (m *Model) SolveLPRound(ctx context.Context, bud budget.Budget) (*Solution, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	if err := budget.Check(ctx); err != nil {
		return nil, err
	}
	lim := limits{ctx: ctx, maxIter: bud.MaxSimplexIter}
	r := m.solveRelaxation(nil, lim, nil)
	if r.err != nil {
		return nil, r.err
	}
	if r.status != Optimal {
		return r.solution(), nil
	}
	bound := r.obj // LP optimum bounds the ILP optimum in the model's own sense
	stats := r.stats()

	if m.pickBranch(r.x, nil) < 0 {
		// Integral within tolerance: snapping is exact and the LP optimum
		// is the ILP optimum.
		x := m.roundExact(r.x)
		if obj, ok := m.evalPoint(x); ok {
			return &Solution{Status: Optimal, Objective: obj, Values: x, Nodes: 1, Bound: obj, Stats: stats}, nil
		}
	} else if x, obj, ok := m.roundToFeasible(r.x); ok {
		return &Solution{Status: Feasible, Objective: obj, Values: x, Nodes: 1, Bound: bound, Stats: stats}, nil
	}
	return nil, &BoundError{Bound: bound, X: append([]float64(nil), r.x...), Stats: stats}
}
