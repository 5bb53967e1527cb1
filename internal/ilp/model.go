// Package ilp provides a small, self-contained mixed 0-1 integer linear
// programming toolkit: a two-phase bounded-variable primal simplex
// solver for linear relaxations and a best-first branch-and-bound driver
// for binary decision variables. Every model minimizes its objective.
// Model.SolveCtx solves a model with binaries by branch and bound, and
// Model.SolveRelaxation solves only its LP relaxation, whose optimum
// bounds the 0-1 optimum from below.
//
// It exists so that the S-instruction selection problem of Choi et al.
// (DAC 1999) can be solved exactly without any external solver. Problem
// instances in that domain are small (tens to hundreds of binary
// variables and constraints), so every node re-solves its relaxation
// with both phases on a dense tableau of its own. A root's LP starts
// with every column at zero. A child's starts at its parent's LP point:
// a column with a finite range whose parent value lies above the
// midpoint of the child's bounds starts at its upper bound, so phase 1
// needs artificials only for the rows that point violates, and only the
// optimal vertex the LP lands on depends on where it starts. A presolve
// first turns every constraint the node's fixings leave with one free
// variable into a bound on it, so the
// tableau holds only rows coupling two or more free variables. It then
// propagates bounds: each remaining row's activity range over the
// node's bounds either proves the node infeasible, with no simplex at
// all, or tightens its variables' bounds, integer ones rounded inward.
// Variable bounds stay out of the tableau too: each column carries its
// upper bound, and the ratio test stops at a basic variable reaching
// either bound or flips the entering column to its own. Each node's
// tableau is sized exactly from a count of its rows, slack and
// artificial columns, in storage the search reuses from node to node.
// It is nearly empty: on the paper's tables a pivot row averages 11
// nonzero columns of 189, and a pivot column 21 nonzero rows of 110. So
// a pivot updates only the nonzero columns of the pivot row, in the rows
// with a nonzero pivot-column entry; the values it leaves are those of
// the full-row update. Each column keeps a superset of its nonzero rows
// as a bitset, and the ratio test walks only those rows.
//
// A lexicographic second solve need not start again from the root. An
// Optimal solve keeps the leaves its search retired without proving
// them infeasible, each with its proven lower bound, and
// Model.SolveWithin starts from those whose bound is at most a limit.
// The caller asserts that every point the second model accepts, with an
// objective in the first model of at most the limit, is a point the
// first model accepts; pinning the first objective at the limit on top
// of the first model's constraints does that.
package ilp

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Rel is the relation of a linear constraint to its right-hand side.
type Rel int

const (
	// LE constrains the row to be ≤ rhs.
	LE Rel = iota
	// GE constrains the row to be ≥ rhs.
	GE
	// EQ constrains the row to be = rhs.
	EQ
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return fmt.Sprintf("Rel(%d)", int(r))
}

// VarID names a variable within its Model. IDs are dense indices assigned
// in AddVar order.
type VarID int

// Term is one coefficient·variable product of a linear expression.
type Term struct {
	Var  VarID
	Coef float64
}

// variable is the internal record for one decision variable.
type variable struct {
	name    string
	lo, hi  float64 // bounds; hi may be +Inf
	obj     float64
	integer bool // branch-and-bound treats integer vars as binaries in [lo,hi]
}

// constraint is one linear row of the model.
type constraint struct {
	name  string
	terms []Term
	rel   Rel
	rhs   float64
}

// Model accumulates variables and constraints, and minimizes its
// objective either as a pure LP (relaxation) or as a mixed 0-1 program.
type Model struct {
	vars        []variable
	cons        []constraint
	onIncumbent func(Progress)
	onBound     func(Progress)
	// slab holds the terms of every row, each row's in one capped
	// sub-slice of it, so adding a row allocates only when the slab
	// grows.
	slab []Term
}

// Progress describes one anytime event of a branch-and-bound solve: a
// new incumbent was installed. Events for one solve arrive in strictly
// decreasing objective order.
type Progress struct {
	// Objective is the incumbent's objective.
	Objective float64
	// Bound is the best proven lower bound on the optimum at the time of
	// the event.
	Bound float64
	// Nodes is the number of branch-and-bound nodes explored so far.
	Nodes int
	// Values is a snapshot of the incumbent's variable assignment (the
	// callback owns the copy), so anytime consumers — the racing
	// portfolio above all — can act on the configuration itself rather
	// than just its objective.
	Values []float64
}

// Gap reports the event's relative optimality gap
// |Objective − Bound| / max(1, |Objective|), or +Inf when the bound is
// not finite.
func (p Progress) Gap() float64 {
	if math.IsInf(p.Bound, 0) || math.IsNaN(p.Bound) {
		return math.Inf(1)
	}
	return math.Abs(p.Objective-p.Bound) / math.Max(1, math.Abs(p.Objective))
}

// OnIncumbent registers f to be invoked synchronously from SolveCtx each
// time the branch-and-bound search installs a new incumbent. The
// callback runs on the solving goroutine — it must be fast and must not
// call back into the model. Pure-LP solves (no integer variables) emit
// no events. Passing nil removes the callback.
func (m *Model) OnIncumbent(f func(Progress)) { m.onIncumbent = f }

// OnBound registers f to be invoked synchronously each time the
// branch-and-bound search tightens the proven global bound on the
// optimum (best-first search raises it monotonically as nodes pop).
// Events carry the bound, the incumbent objective at the time (+Inf
// while no incumbent exists), and no Values — they report proof
// progress, not a new configuration. Consumers that only
// need the incumbent stream should keep using OnIncumbent; this
// callback is for anytime consumers, the racing portfolio above all,
// whose acceptability test tightens with every proven bound. Same
// contract as OnIncumbent: fast, no re-entry, nil removes it.
func (m *Model) OnBound(f func(Progress)) { m.onBound = f }

// NewModel returns an empty model.
func NewModel() *Model {
	return &Model{}
}

// AddVar adds a continuous variable with bounds [lo, hi] (hi may be
// math.Inf(1)) and the given objective coefficient.
func (m *Model) AddVar(name string, lo, hi, obj float64) VarID {
	m.vars = append(m.vars, variable{name: name, lo: lo, hi: hi, obj: obj})
	return VarID(len(m.vars) - 1)
}

// AddBinary adds a 0-1 decision variable with the given objective
// coefficient.
func (m *Model) AddBinary(name string, obj float64) VarID {
	m.vars = append(m.vars, variable{name: name, lo: 0, hi: 1, obj: obj, integer: true})
	return VarID(len(m.vars) - 1)
}

// AddConstraint appends the row Σ terms rel rhs. Terms may repeat a
// variable; coefficients are accumulated.
func (m *Model) AddConstraint(name string, terms []Term, rel Rel, rhs float64) {
	start := len(m.slab)
	m.slab = append(m.slab, terms...)
	end := len(m.slab)
	m.cons = append(m.cons, constraint{name: name, terms: m.slab[start:end:end], rel: rel, rhs: rhs})
}

// VarName reports the name a variable was declared with.
func (m *Model) VarName(v VarID) string { return m.vars[v].name }

// Status describes the outcome of a solve.
type Status int

const (
	// Optimal means a provably optimal solution was found.
	Optimal Status = iota
	// Infeasible means no assignment satisfies the constraints.
	Infeasible
	// Unbounded means the objective can be improved without limit.
	Unbounded
	// Feasible means the solve stopped on a resource budget with a valid
	// incumbent that is not proven optimal; Solution.Bound brackets how
	// far from optimal it can be.
	Feasible
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Feasible:
		return "feasible"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of solving a Model.
type Solution struct {
	Status    Status
	Objective float64
	// Values holds one entry per variable, indexed by VarID.
	Values []float64
	// Nodes is the number of branch-and-bound nodes explored (1 for a
	// pure LP solve).
	Nodes int
	// Bound is the best proven lower bound on the optimal objective.
	// Equal to Objective when Status is Optimal; +Inf when Infeasible
	// and -Inf when Unbounded; may be infinite when the solve stopped
	// before the root relaxation finished.
	Bound float64
	// Stopped records why an anytime solve gave up (wrapping one of the
	// budget package sentinels); nil when the solve ran to completion.
	Stopped error
	// Stats carries low-level search counters (LP solves and pivot
	// counts); purely informational.
	Stats SearchStats

	// leaves are the subtrees an Optimal solve by branch and bound
	// retired without proving them infeasible; SolveWithin starts from
	// them.
	leaves []leaf
}

// Gap reports the relative optimality gap |Objective − Bound| /
// max(1, |Objective|): zero for proven-optimal solutions, positive for
// Feasible (anytime) ones, +Inf when no useful bound is known.
func (s *Solution) Gap() float64 {
	switch s.Status {
	case Optimal:
		return 0
	case Feasible:
		if math.IsInf(s.Bound, 0) || math.IsNaN(s.Bound) {
			return math.Inf(1)
		}
		return math.Abs(s.Objective-s.Bound) / math.Max(1, math.Abs(s.Objective))
	}
	return math.Inf(1)
}

// IsSet reports whether binary variable v is 1 in the solution (within
// integer tolerance).
func (s *Solution) IsSet(v VarID) bool { return s.Values[v] > 0.5 }

// ErrNoVariables is returned when solving an empty model.
var ErrNoVariables = errors.New("ilp: model has no variables")

// String renders the model in an LP-file-like format, for debugging and
// golden tests.
func (m *Model) String() string {
	var b strings.Builder
	b.WriteString("min ")
	for i, v := range m.vars {
		if i > 0 {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "%g %s", v.obj, v.name)
	}
	b.WriteString("\ns.t.\n")
	for _, c := range m.cons {
		fmt.Fprintf(&b, "  %s: ", c.name)
		for i, t := range c.terms {
			if i > 0 {
				b.WriteString(" + ")
			}
			fmt.Fprintf(&b, "%g %s", t.Coef, m.vars[t.Var].name)
		}
		fmt.Fprintf(&b, " %s %g\n", c.rel, c.rhs)
	}
	for _, v := range m.vars {
		kind := "cont"
		if v.integer {
			kind = "bin"
		}
		fmt.Fprintf(&b, "  %s in [%g, %g] (%s)\n", v.name, v.lo, v.hi, kind)
	}
	return b.String()
}

// validate checks structural sanity of the model before solving.
func (m *Model) validate() error {
	if len(m.vars) == 0 {
		return ErrNoVariables
	}
	for _, c := range m.cons {
		for _, t := range c.terms {
			if t.Var < 0 || int(t.Var) >= len(m.vars) {
				return fmt.Errorf("ilp: constraint %q references unknown variable %d", c.name, t.Var)
			}
			if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
				return fmt.Errorf("ilp: constraint %q has non-finite coefficient", c.name)
			}
		}
		if math.IsNaN(c.rhs) || math.IsInf(c.rhs, 0) {
			return fmt.Errorf("ilp: constraint %q has non-finite rhs", c.name)
		}
	}
	for _, v := range m.vars {
		if v.lo > v.hi {
			return fmt.Errorf("ilp: variable %q has empty domain [%g, %g]", v.name, v.lo, v.hi)
		}
		if math.IsNaN(v.obj) || math.IsInf(v.obj, 0) {
			return fmt.Errorf("ilp: variable %q has non-finite objective coefficient", v.name)
		}
	}
	return nil
}
