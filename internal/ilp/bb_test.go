package ilp

import (
	"math"
	"math/rand"
	"testing"
)

func TestKnapsack(t *testing.T) {
	// Classic 0-1 knapsack: values {60,100,120}, weights {10,20,30}, cap 50.
	// Optimum: items 2 and 3, value 220.
	m := NewModel(Maximize)
	a := m.AddBinary("a", 60)
	b := m.AddBinary("b", 100)
	c := m.AddBinary("c", 120)
	m.AddConstraint("cap", []Term{{a, 10}, {b, 20}, {c, 30}}, LE, 50)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !almost(s.Objective, 220, 1e-6) {
		t.Fatalf("status=%v obj=%g, want optimal 220", s.Status, s.Objective)
	}
	if s.IsSet(a) || !s.IsSet(b) || !s.IsSet(c) {
		t.Errorf("selection = %v %v %v, want false true true", s.IsSet(a), s.IsSet(b), s.IsSet(c))
	}
}

func TestMinCoverWithFixedCharge(t *testing.T) {
	// Miniature of the paper's IP-sharing structure: two s-calls can both
	// use IP k (area 5). Selecting either or both must pay the area once.
	m := NewModel(Minimize)
	x1 := m.AddBinary("x1", 0)
	x2 := m.AddBinary("x2", 0)
	z := m.AddBinary("z_ip", 5)
	// Each selected x needs gain; require total gain >= 15 with g=10 each:
	// forces both x1 and x2.
	m.AddConstraint("gain", []Term{{x1, 10}, {x2, 10}}, GE, 15)
	// Fixed charge: x1 + x2 <= 2*z.
	m.AddConstraint("fc", []Term{{x1, 1}, {x2, 1}, {z, -2}}, LE, 0)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if !almost(s.Objective, 5, 1e-6) {
		t.Errorf("objective = %g, want 5 (IP area paid once)", s.Objective)
	}
	if !s.IsSet(x1) || !s.IsSet(x2) || !s.IsSet(z) {
		t.Errorf("want all three set, got %v %v %v", s.IsSet(x1), s.IsSet(x2), s.IsSet(z))
	}
}

func TestConflictPair(t *testing.T) {
	// Problem-2 style SC-PC conflict: x + y <= 1 with both very valuable;
	// only one may be chosen.
	m := NewModel(Maximize)
	x := m.AddBinary("x", 10)
	y := m.AddBinary("y", 9)
	m.AddConstraint("conflict", []Term{{x, 1}, {y, 1}}, LE, 1)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(s.Objective, 10, 1e-6) || !s.IsSet(x) || s.IsSet(y) {
		t.Fatalf("obj=%g x=%v y=%v, want 10 true false", s.Objective, s.IsSet(x), s.IsSet(y))
	}
}

func TestInfeasibleMILP(t *testing.T) {
	m := NewModel(Minimize)
	x := m.AddBinary("x", 1)
	y := m.AddBinary("y", 1)
	m.AddConstraint("need3", []Term{{x, 1}, {y, 1}}, GE, 3)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min 4b + y ; y >= 2 - 2b ; y >= 0; b binary.
	// b=0: y=2, obj 2. b=1: y=0, obj 4. Optimum 2.
	m := NewModel(Minimize)
	b := m.AddBinary("b", 4)
	y := m.AddVar("y", 0, math.Inf(1), 1)
	m.AddConstraint("c", []Term{{y, 1}, {b, 2}}, GE, 2)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !almost(s.Objective, 2, 1e-6) {
		t.Fatalf("status=%v obj=%g, want optimal 2", s.Status, s.Objective)
	}
	if s.IsSet(b) {
		t.Error("b should be 0")
	}
}

// bruteForce enumerates all binary assignments and reports the optimum
// objective (NaN if infeasible). Continuous variables are not supported.
func bruteForce(m *Model) (float64, bool) {
	n := len(m.vars)
	best := math.NaN()
	found := false
	for mask := 0; mask < 1<<n; mask++ {
		x := make([]float64, n)
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				x[j] = 1
			}
		}
		ok := true
		for _, c := range m.cons {
			sum := 0.0
			for _, t := range c.terms {
				sum += t.Coef * x[t.Var]
			}
			switch c.rel {
			case LE:
				ok = sum <= c.rhs+1e-9
			case GE:
				ok = sum >= c.rhs-1e-9
			case EQ:
				ok = math.Abs(sum-c.rhs) <= 1e-9
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		obj := 0.0
		for j, v := range m.vars {
			obj += v.obj * x[j]
		}
		if !found {
			best = obj
			found = true
		} else if m.sense == Minimize && obj < best {
			best = obj
		} else if m.sense == Maximize && obj > best {
			best = obj
		}
	}
	return best, found
}

// TestRandomAgainstBruteForce cross-checks branch and bound against
// exhaustive enumeration on random small 0-1 programs.
func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8) // up to 9 binaries
		nc := 1 + rng.Intn(5)
		sense := Minimize
		if rng.Intn(2) == 1 {
			sense = Maximize
		}
		m := NewModel(sense)
		for j := 0; j < n; j++ {
			m.AddBinary("x", float64(rng.Intn(41)-20))
		}
		for i := 0; i < nc; i++ {
			var terms []Term
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					terms = append(terms, Term{VarID(j), float64(rng.Intn(21) - 10)})
				}
			}
			if len(terms) == 0 {
				terms = []Term{{VarID(0), 1}}
			}
			rel := Rel(rng.Intn(3))
			if rel == EQ {
				rel = LE // equalities over random ints are almost always infeasible; keep the test informative
			}
			m.AddConstraint("c", terms, rel, float64(rng.Intn(31)-10))
		}
		want, feasible := bruteForce(m)
		got, err := m.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, m)
		}
		if err := m.Check(got, 1e-6); err != nil {
			t.Fatalf("trial %d: solution fails verification: %v\n%s", trial, err, m)
		}
		if !feasible {
			if got.Status != Infeasible {
				t.Fatalf("trial %d: solver says %v, brute force says infeasible\n%s", trial, got.Status, m)
			}
			continue
		}
		if got.Status != Optimal {
			t.Fatalf("trial %d: solver says %v, brute force found optimum %g\n%s", trial, got.Status, want, m)
		}
		if !almost(got.Objective, want, 1e-6) {
			t.Fatalf("trial %d: solver obj %g, brute force %g\n%s", trial, got.Objective, want, m)
		}
	}
}

// TestFixSetChain pins down the parent-pointer fixing chain semantics:
// the nearest fixing on the path to the root wins, entries from a
// previously loaded node are cleared, and a nil fixSet has no fixings.
func TestFixSetChain(t *testing.T) {
	root := &bbNode{v: -1}
	a := &bbNode{parent: root, v: 0, val: 1, depth: 1}
	b := &bbNode{parent: a, v: 2, val: 0, depth: 2}
	c := &bbNode{parent: b, v: 0, val: 0, depth: 3} // re-fix v0: nearest wins

	fx := &fixSet{}
	fx.load(4, c)
	if v, ok := fx.get(0); !ok || v != 0 {
		t.Errorf("v0 = %v,%v; want 0 fixed (nearest fixing shadows the ancestor)", v, ok)
	}
	if v, ok := fx.get(2); !ok || v != 0 {
		t.Errorf("v2 = %v,%v; want 0 fixed", v, ok)
	}
	if fx.fixed(1) || fx.fixed(3) {
		t.Error("unfixed variables report fixed")
	}

	fx.load(4, a)
	if v, ok := fx.get(0); !ok || v != 1 {
		t.Errorf("after reload, v0 = %v,%v; want 1 fixed", v, ok)
	}
	if fx.fixed(2) {
		t.Error("stale fixing for v2 survived reload")
	}

	var nilFx *fixSet
	if nilFx.fixed(0) {
		t.Error("nil fixSet reports fixings")
	}
	if _, ok := nilFx.get(0); ok {
		t.Error("nil fixSet returns values")
	}
}

func TestNodesReported(t *testing.T) {
	m := NewModel(Maximize)
	a := m.AddBinary("a", 3)
	b := m.AddBinary("b", 2)
	m.AddConstraint("cap", []Term{{a, 2}, {b, 2}}, LE, 3)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes < 1 {
		t.Errorf("Nodes = %d, want >= 1", s.Nodes)
	}
	if !almost(s.Objective, 3, 1e-6) {
		t.Errorf("objective = %g, want 3", s.Objective)
	}
}
