package ilp

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"partita/internal/budget"
)

// adversarialModel builds an interleaved fixed-charge knapsack that
// defeats bound-based pruning: 2n binaries, minimize Σ(z_i − 3·x_i)
// subject to 2·Σx_i ≤ n−1 (n even, so the capacity is odd) and
// x_i ≤ z_i. Equal weights with an odd capacity keep one x at 1/2 in
// the relaxation of *every* subproblem with more free items than the
// remaining capacity admits — fixing a variable either way leaves the
// child fractional — so all node bounds tie at (n−1) against the best
// integral value of 2·⌊(n−1)/2⌋ and nothing prunes: the tree is the
// full binomial explosion. Incumbents still appear within a dive's
// depth (once the capacity is nearly consumed the leftover fraction
// rounds down feasibly), which is exactly the anytime regime: a good
// answer early, an exponential proof never.
func adversarialModel(n int) *Model {
	m := NewModel()
	capTerms := make([]Term, 0, n)
	for i := 0; i < n; i++ {
		x := m.AddBinary(fmt.Sprintf("x%d", i), -3)
		z := m.AddBinary(fmt.Sprintf("z%d", i), 1)
		m.AddConstraint(fmt.Sprintf("link%d", i), []Term{{Var: x, Coef: 1}, {Var: z, Coef: -1}}, LE, 0)
		capTerms = append(capTerms, Term{Var: x, Coef: 2})
	}
	m.AddConstraint("cap", capTerms, LE, float64(n-1))
	return m
}

// adversarialOptimum is the true optimum of adversarialModel(n):
// ⌊(n−1)/2⌋ chosen pairs at net objective −2 each.
func adversarialOptimum(n int) float64 { return float64(-2 * ((n - 1) / 2)) }

// A 100ms deadline on the adversarial instance must produce an anytime
// answer quickly: back within 200ms, Status Feasible, an incumbent that
// passes full verification, and a positive optimality gap.
func TestSolveDeadlineAnytime(t *testing.T) {
	m := adversarialModel(20)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()

	start := time.Now()
	s, err := m.SolveCtx(ctx, budget.Budget{})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("deadline solve failed outright: %v", err)
	}
	if elapsed > 200*time.Millisecond {
		t.Errorf("solve took %v, want ≤ 200ms past a 100ms deadline", elapsed)
	}
	if s.Status != Feasible {
		t.Fatalf("status = %v, want Feasible (instance is designed to exceed the deadline)", s.Status)
	}
	if !errors.Is(s.Stopped, budget.ErrDeadline) {
		t.Errorf("Stopped = %v, want ErrDeadline", s.Stopped)
	}
	if err := m.Check(s, 1e-6); err != nil {
		t.Errorf("incumbent fails verification: %v", err)
	}
	if g := s.Gap(); g <= 0 {
		t.Errorf("gap = %g, want > 0 (optimum cannot be proven in 100ms)", g)
	}
	// The proven lower bound must not exceed the incumbent.
	if s.Bound > s.Objective {
		t.Errorf("bound %g above incumbent %g", s.Bound, s.Objective)
	}
}

// A node budget behaves like a deadline: stop near the cap, keep the
// incumbent, report ErrNodeLimit.
func TestSolveNodeLimitAnytime(t *testing.T) {
	m := adversarialModel(20)
	s, err := m.SolveCtx(context.Background(), budget.Budget{MaxNodes: 60})
	if err != nil {
		t.Fatalf("node-limited solve failed outright: %v", err)
	}
	if s.Status != Feasible {
		t.Fatalf("status = %v, want Feasible", s.Status)
	}
	if s.Nodes > 60 {
		t.Errorf("explored %d nodes past a 60-node budget", s.Nodes)
	}
	if !errors.Is(s.Stopped, budget.ErrNodeLimit) {
		t.Errorf("Stopped = %v, want ErrNodeLimit", s.Stopped)
	}
	if err := m.Check(s, 1e-6); err != nil {
		t.Errorf("incumbent fails verification: %v", err)
	}
	if opt := adversarialOptimum(20); s.Objective < opt-1e-9 || s.Bound > opt+1e-9 {
		t.Errorf("incumbent %g / bound %g do not bracket the optimum %g", s.Objective, s.Bound, opt)
	}
}

// Cancellation aborts mid-solve promptly (within 50ms of the cancel)
// and surfaces context.Canceled rather than a silent degraded answer.
func TestSolveCancellation(t *testing.T) {
	// An already-canceled context fails fast with the deadline sentinel.
	pre, stop := context.WithCancel(context.Background())
	stop()
	if _, err := adversarialModel(10).SolveCtx(pre, budget.Budget{}); !errors.Is(err, budget.ErrDeadline) {
		t.Errorf("pre-canceled solve: err = %v, want ErrDeadline", err)
	}

	m := adversarialModel(20)
	ctx, cancel := context.WithCancel(context.Background())

	type outcome struct {
		s   *Solution
		err error
		at  time.Time
	}
	done := make(chan outcome, 1)
	go func() {
		s, err := m.SolveCtx(ctx, budget.Budget{})
		done <- outcome{s, err, time.Now()}
	}()
	time.Sleep(10 * time.Millisecond)
	cancelled := time.Now()
	cancel()

	select {
	case o := <-done:
		if lag := o.at.Sub(cancelled); lag > 50*time.Millisecond {
			t.Errorf("solver returned %v after cancel, want ≤ 50ms", lag)
		}
		// Anytime semantics still apply: an incumbent comes back as
		// Feasible with Stopped recording the cancellation; either way
		// the cancellation itself must be visible.
		if o.err != nil {
			if !errors.Is(o.err, context.Canceled) {
				t.Errorf("error %v does not wrap context.Canceled", o.err)
			}
		} else if !errors.Is(o.s.Stopped, context.Canceled) {
			t.Errorf("Stopped = %v, want context.Canceled", o.s.Stopped)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("solver did not return within 2s of cancellation")
	}
}

// Sanity: with an ample budget the adversarial instance reaches its true
// optimum, adversarialOptimum(n) — proving the anytime answers above are
// genuinely suboptimal-or-equal, not artifacts.
func TestAdversarialOptimumSmall(t *testing.T) {
	for _, n := range []int{6, 9, 12} {
		m := adversarialModel(n)
		s, err := m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if s.Status != Optimal {
			t.Fatalf("n=%d: status = %v", n, s.Status)
		}
		if want := adversarialOptimum(n); s.Objective != want {
			t.Errorf("n=%d: objective = %g, want %g", n, s.Objective, want)
		}
		if s.Bound != s.Objective {
			t.Errorf("n=%d: exact result has bound %g != objective %g", n, s.Bound, s.Objective)
		}
		if err := m.Check(s, 1e-6); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}
