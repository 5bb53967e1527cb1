// Package budget defines the shared resource-budget vocabulary of the
// Partita pipeline: a Budget value bounds how much work the exact
// solvers may spend, and the typed errors below report which limit was
// exhausted. Wall-clock limits travel as context deadlines; discrete
// limits (branch-and-bound nodes, simplex pivots, simulation steps)
// travel as Budget fields.
//
// The contract every budgeted layer follows:
//
//   - exhausting a budget is not a failure of the input — layers either
//     return their best incumbent so far (anytime results) or degrade to
//     a cheaper heuristic, and the result is marked accordingly;
//   - the returned error (or the recorded stop reason) wraps exactly one
//     of the sentinel errors here, so callers can dispatch with
//     errors.Is regardless of which layer gave up first.
package budget

import (
	"context"
	"errors"
	"fmt"
)

// Sentinel errors for each budget dimension. Errors returned by budgeted
// layers wrap these; test with errors.Is.
var (
	// ErrDeadline reports that the wall-clock budget (context deadline
	// or cancellation) expired.
	ErrDeadline = errors.New("budget: wall-clock budget exhausted")
	// ErrNodeLimit reports that the branch-and-bound node budget ran out.
	ErrNodeLimit = errors.New("budget: branch-and-bound node budget exhausted")
	// ErrIterLimit reports that a simplex iteration budget ran out.
	ErrIterLimit = errors.New("budget: simplex iteration budget exhausted")
	// ErrStepLimit reports that a simulation step budget ran out.
	ErrStepLimit = errors.New("budget: simulation step budget exhausted")
)

// Budget bounds the discrete work of one solve. The zero value means
// "unlimited" for every dimension; wall-clock limits are expressed
// separately through a context deadline.
type Budget struct {
	// MaxNodes bounds the number of branch-and-bound nodes explored
	// across one Solve call (0 = unlimited).
	MaxNodes int
	// MaxSimplexIter bounds the simplex iterations of each LP
	// relaxation solve, pivots and bound flips alike (0 = the solver's
	// built-in safety cap).
	MaxSimplexIter int
	// Parallelism is ignored: every solve runs the serial
	// branch-and-bound, which explores nodes in a fixed, reproducible
	// order.
	//
	// Deprecated: kept so existing callers compile; it has no effect.
	Parallelism int
}

// Unlimited reports whether the budget imposes no discrete limits.
func (b Budget) Unlimited() bool { return b.MaxNodes <= 0 && b.MaxSimplexIter <= 0 }

// Check maps a context's cancellation state to the budget vocabulary:
// nil while the context is live, and an error wrapping both ErrDeadline
// and the context's own error (context.DeadlineExceeded or
// context.Canceled) once it is done.
func Check(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrDeadline, err)
	}
	return nil
}

// IsExhausted reports whether err (or anything it wraps) is one of the
// budget sentinels — i.e. the work stopped because a budget ran out, not
// because the input was invalid.
func IsExhausted(err error) bool {
	return errors.Is(err, ErrDeadline) || errors.Is(err, ErrNodeLimit) ||
		errors.Is(err, ErrIterLimit) || errors.Is(err, ErrStepLimit)
}
