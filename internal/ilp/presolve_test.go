package ilp

import (
	"math/rand"
	"testing"
)

// randomBinaryNode draws a pure 0-1 model of 1 to 12 variables and a
// node of it: up to 8 rows of LE, GE and EQ, with zero coefficients,
// repeated variables and, in one row of four, coefficients scaled like
// the selection model's gains; and random fixings. Coefficients and
// right-hand sides are integers, so a point's activity is exact. Seven
// rows in eight hold at one random point, tightly or with a little
// slack; the eighth gets a random right-hand side.
func randomBinaryNode(rng *rand.Rand) (*Model, *bbNode) {
	m := NewModel()
	n := 1 + rng.Intn(12)
	point := make([]float64, n)
	for j := range point {
		m.AddBinary("x", float64(rng.Intn(7)-3))
		point[j] = float64(rng.Intn(2))
	}
	for c, rows := 0, rng.Intn(9); c < rows; c++ {
		scale := 1.0
		if rng.Intn(4) == 0 {
			scale = 126087
		}
		terms := make([]Term, 1+rng.Intn(n+2))
		at := 0.0
		for k := range terms {
			coef := float64(rng.Intn(9) - 4)
			if rng.Intn(5) == 0 {
				coef = 0
			}
			j := rng.Intn(n)
			terms[k] = Term{Var: VarID(j), Coef: coef * scale}
			at += terms[k].Coef * point[j]
		}
		rel := Rel(rng.Intn(3))
		slack := float64(rng.Intn(3)) * scale
		rhs := at
		switch {
		case rng.Intn(8) == 0:
			rhs = float64(rng.Intn(2*len(terms)+1)-len(terms)) * scale
		case rel == LE:
			rhs += slack
		case rel == GE:
			rhs -= slack
		}
		m.AddConstraint("c", terms, rel, rhs)
	}
	node := &bbNode{v: -1}
	for j := 0; j < n; j++ {
		if rng.Intn(4) == 0 {
			node = &bbNode{parent: node, v: VarID(j), val: float64(rng.Intn(2))}
		}
	}
	return m, node
}

// feasiblePoint reports whether the 0-1 point bits satisfies every row
// of m and every fixing of fx, exactly.
func feasiblePoint(m *Model, fx *fixSet, bits uint) bool {
	x := func(j VarID) float64 { return float64(bits >> j & 1) }
	for j := range m.vars {
		if v, ok := fx.get(VarID(j)); ok && v != x(VarID(j)) {
			return false
		}
	}
	for _, c := range m.cons {
		act := 0.0
		for _, tm := range c.terms {
			act += tm.Coef * x(tm.Var)
		}
		if (c.rel != GE && act > c.rhs) || (c.rel != LE && act < c.rhs) {
			return false
		}
	}
	return true
}

// TestPresolveKeepsIntegerPoints: on random pure 0-1 models and nodes,
// enumerating every integer point, presolve keeps each feasible point
// inside the bounds it leaves, and reports the node infeasible only when
// no point is feasible. The models include zero coefficients, repeated
// terms, gain-sized coefficients and EQ, LE and GE rows; the test counts
// how often presolve proves a node infeasible and how often its bounds
// exclude a point the fixings allow, and requires both.
func TestPresolveKeepsIntegerPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fx := &fixSet{}
	ar := &arena{}
	var proved, empty, tightened int
	for trial := 0; trial < 3000; trial++ {
		m, node := randomBinaryNode(rng)
		n := len(m.vars)
		fx.load(n, node)
		ok := m.presolve(fx, ar)
		feasible, cut := 0, false
		for bits := uint(0); bits < 1<<n; bits++ {
			if !feasiblePoint(m, fx, bits) {
				if ok && feasiblePoint(&Model{vars: m.vars}, fx, bits) {
					// A point the fixings allow but a row rules out:
					// count it when presolve's bounds exclude it too.
					for j := 0; j < n; j++ {
						if v := float64(bits >> j & 1); v < ar.lo[j] || v > ar.hi[j] {
							cut = true
						}
					}
				}
				continue
			}
			feasible++
			if !ok {
				t.Fatalf("trial %d: presolve reports infeasible, but point %0*b is feasible\n%s", trial, n, bits, m)
			}
			for j := 0; j < n; j++ {
				if v := float64(bits >> j & 1); v < ar.lo[j] || v > ar.hi[j] {
					t.Fatalf("trial %d: feasible point %0*b has x%d = %g outside presolve's [%g, %g]\n%s", trial, n, bits, j, v, ar.lo[j], ar.hi[j], m)
				}
			}
		}
		switch {
		case !ok:
			proved++
		case feasible == 0:
			empty++
		}
		if cut {
			tightened++
		}
	}
	t.Logf("3000 nodes: %d proved infeasible by presolve, %d infeasible left to the LP, %d with a point excluded by bounds alone", proved, empty, tightened)
	if proved < 300 || tightened < 300 {
		t.Fatalf("only %d nodes proved infeasible and %d with tightened bounds: the models exercise too little", proved, tightened)
	}
}
