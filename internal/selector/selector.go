// Package selector solves the optimal S-instruction generation problem of
// Choi et al. (DAC 1999), Section 4: choose at most one implementation
// method (IMP) per s-call such that every execution path meets its
// required performance gain, minimizing total silicon area.
//
// The 0-1 ILP follows the paper:
//
//	(1)  Σ_j x_ij ≤ 1                          per s-call SC_i
//	(2)  Σ_{SC_i ∈ P_k} Σ_j x_ij·g_ij ≥ T_k    per execution path P_k
//	(3)  Σ_ij s_ijk·x_ij ≤ M·z_k               fixed charge per IP k
//	(4)  x_ij + x_kl ≤ 1                       per SC-PC conflict pair
//
//	min  Σ_k z_k·a_k + interface area
//
// Interface area is itself fixed-charged per (IP, interface-type,
// flatten-target) group: s-calls implemented the same way merge into a
// single S-instruction that shares its interface code/FSM, which is what
// makes the area column of the paper's tables additive over *distinct*
// implementations only.
//
// Ties are broken lexicographically (derived from the published tables):
// minimum area first, then minimum total gain surplus, then fewest
// selected methods. The tie-break pass pins the area at the area pass's
// optimum and solves no root: it starts from the area pass's
// branch-and-bound leaves whose area bound is within the pin
// (ilp.Model.SolveWithin), the only ones that can hold a selection of
// the optimal area.
package selector

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"partita/internal/budget"
	"partita/internal/iface"
	"partita/internal/ilp"
	"partita/internal/imp"
)

// Problem is one selection instance.
type Problem struct {
	DB *imp.DB
	// Required is the performance gain every execution path must reach
	// (the RG column of the paper's tables).
	Required int64
	// PerPath optionally overrides Required for individual paths
	// (indexed like DB.Paths). Entries < 0 fall back to Required.
	PerPath []int64
	// DisableMerging charges interface area per selected IMP instead of
	// per distinct implementation (ablation A3 support).
	DisableMerging bool
	// Budget bounds the exact solver's node/pivot work; the wall-clock
	// budget travels as the context deadline of SolveCtx. The zero value
	// is unlimited.
	Budget budget.Budget
	// OnIncumbent, when non-nil, observes the area-minimization pass of
	// the exact solve: it is invoked synchronously on the solving
	// goroutine each time the branch-and-bound search installs a new
	// incumbent, in strictly decreasing Area order. The tie-break pass
	// (which cannot change the area) emits no events.
	OnIncumbent func(Incumbent)
	// OnBound, when non-nil, observes the area-minimization pass's
	// proven lower bound on the optimal area as the search raises it
	// (strictly rising; same synchronous, be-fast contract as
	// OnIncumbent). Bound rises are far more frequent than incumbent
	// installs — this is the stream the racing portfolio judges
	// candidate acceptability against.
	OnBound func(bound float64)

	// areaFloor, when positive, adds the valid cut area >= areaFloor to
	// the area-minimization pass. It only lifts the relaxation bound, so
	// the search prunes the moment an incumbent matching the floor is
	// found. Set through SetAreaFloor, by the portfolio's capacity bound
	// and by incremental re-solves.
	areaFloor float64
}

// Incumbent is one anytime progress event of SolveCtx: the solver found
// a configuration better than every previous one.
type Incumbent struct {
	// Area is the incumbent's total area (the minimization objective).
	Area float64
	// Bound is the best proven lower bound on the optimal area so far.
	Bound float64
	// Gap is the relative optimality gap |Area − Bound| / max(1, Area);
	// +Inf when no finite bound is known yet.
	Gap float64
	// Nodes is the number of branch-and-bound nodes explored so far.
	Nodes int
	// Sel is the incumbent configuration itself, decoded (Status
	// Feasible, Gap as above) so anytime consumers — the racing
	// portfolio — can deliver it, not just report its area. Nil when the
	// event carried no variable assignment.
	Sel *Selection
}

// Selection is the solved result, with the columns of the paper's tables.
type Selection struct {
	Status ilp.Status
	Chosen []*imp.IMP
	// Area is the paper's A column: shared IP areas plus merged
	// interface areas.
	Area float64
	// Gain is the paper's G column: total achieved gain (site-frequency
	// weighted) over all selected implementations.
	Gain int64
	// PathGains lists the achieved gain on each execution path.
	PathGains []int64
	// SInstructions is the paper's S column: distinct implementations
	// after merging.
	SInstructions int
	// SCallsImplemented is the paper's O column: call sites covered.
	SCallsImplemented int
	// Nodes is the branch-and-bound node total across both passes.
	Nodes int
	// Gap is the relative optimality gap when Status is ilp.Feasible
	// (anytime result): how far the area may be from the true optimum.
	// Zero for exact results.
	Gap float64
	// Degraded is empty for exact and anytime results. When the solver
	// budget expired before any incumbent existed, it names the
	// exhausted budget and the selection comes from GreedyBaseline.
	Degraded string
	// Search accumulates the low-level ILP search counters (LP solves
	// and pivots) across both passes.
	Search ilp.SearchStats
	// Passes splits Search by pass: the area pass, then the tie-break
	// pass. A selection that returned after the area pass has a zero
	// Passes[1].
	Passes [2]ilp.SearchStats
}

// setPasses records the counters of the area pass and the tie-break
// pass, and their sum in Search.
func (s *Selection) setPasses(area, tieBreak ilp.SearchStats) {
	s.Passes = [2]ilp.SearchStats{area, tieBreak}
	s.Search = area
	s.Search.Add(tieBreak)
}

// Exact reports whether the selection is provably optimal (neither an
// anytime incumbent nor a heuristic fallback).
func (s *Selection) Exact() bool { return s.Status == ilp.Optimal && s.Degraded == "" }

// group identifies one S-instruction implementation class.
type group struct {
	ipID      string
	ifType    iface.Type
	flattened string
}

// instance binds one Problem to its — possibly shared — Analysis. The
// point-independent model-building state (groups, areas, path
// coefficients) lives in the embedded Analysis; the instance adds only
// the per-solve Problem.
type instance struct {
	*Analysis
	p Problem
}

func newInstance(p Problem) *instance {
	return &instance{Analysis: NewAnalysis(p.DB), p: p}
}

func groupLess(a, b group) bool {
	if a.ipID != b.ipID {
		return a.ipID < b.ipID
	}
	if a.ifType != b.ifType {
		return a.ifType < b.ifType
	}
	return a.flattened < b.flattened
}

// SetAreaFloor installs a proven lower bound on the optimal area as a
// valid cut of the area-minimization pass. The caller asserts the
// proof: a floor above the true optimum makes the solve wrong, not
// slow. Incremental re-solves derive it from the previous proven
// optimum via Analysis.FloorShrink; the cut only lifts the relaxation
// bound and never changes which solution is optimal, so a floored
// solve stays byte-for-byte identical to an unfloored one.
func (p *Problem) SetAreaFloor(floor float64) { p.areaFloor = floor }

// AreaFloor reports the installed proven lower bound on the optimal
// area, 0 when none.
func (p Problem) AreaFloor() float64 { return p.areaFloor }

func (in *instance) required(k int) int64 {
	if k < len(in.p.PerPath) && in.p.PerPath[k] >= 0 {
		return in.p.PerPath[k]
	}
	return in.p.Required
}

// handles are the model variables of one build that its callers read:
// xs per IMP, zs per IP in ipIDs order and, unless merging is disabled,
// as per group in groups order, the continuous group interface areas
// (max over selected members). Such a build also adds per group a
// binary group-selected indicator y (S-instruction count), linked to its
// members only in a build that prices it. No caller reads a y, but every
// build adds them, so that both passes have the same variables.
type handles struct {
	m          *ilp.Model
	xs, zs, as []ilp.VarID
}

// build assembles constraints (1)-(4); objective coefficients are set by
// the caller: objX per method, objZ per unit of IP area, objYCount per
// selected group (tiebreak weight), objGArea per unit of merged
// interface area. Each row family shares one name, and every row is
// written from the analysis's index arrays, so a build formats no
// string and keys no map.
func (in *instance) build(objX func(i int) float64, objZ func(area float64) float64, objYCount, objGArea float64) handles {
	db := in.db
	nx, nz, ng := len(db.IMPs), len(in.ipIDs), len(in.groups)
	if in.p.DisableMerging {
		ng = 0
	}
	m := ilp.NewModel()
	ids := make([]ilp.VarID, nx+nz+ng)
	h := handles{m: m, xs: ids[:nx:nx], zs: ids[nx : nx+nz : nx+nz], as: ids[nx+nz:]}
	for i := range db.IMPs {
		h.xs[i] = m.AddBinary("x", objX(i))
	}
	// terms is the scratch of every row: AddConstraint keeps a copy.
	var terms []ilp.Term
	// (1) one method per s-call.
	for s := range db.SCalls {
		terms = terms[:0]
		for i := range db.IMPs {
			if in.scOf[i] == s {
				terms = append(terms, ilp.Term{Var: h.xs[i], Coef: 1})
			}
		}
		if len(terms) > 0 {
			m.AddConstraint("one", terms, ilp.LE, 1)
		}
	}
	// (2) per-path required gain.
	for k := range db.Paths {
		rg := in.required(k)
		if rg <= 0 {
			continue
		}
		terms = terms[:0]
		for i := range db.IMPs {
			if c := in.pathCoef(k, i); c != 0 {
				terms = append(terms, ilp.Term{Var: h.xs[i], Coef: float64(c)})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, ilp.Term{Var: h.xs[0], Coef: 0})
		}
		m.AddConstraint("path", terms, ilp.GE, float64(rg))
	}
	// (3) fixed charge per IP. The disaggregated form x_m ≤ z_k is
	// equivalent to the paper's Σx ≤ M·z_k but gives a much tighter LP
	// relaxation, which keeps branch and bound small. A method gets its
	// link only when it is alone in its (IP, s-call) pair: a pair of two
	// or more has the (3b) row Σx − z_k ≤ 0, which implies each member's
	// link because every x ≥ 0, so those links would change no LP.
	lone := make([]bool, nx)
	for _, pair := range in.ipSC {
		if len(pair) == 1 {
			lone[pair[0]] = true
		}
	}
	for j, id := range in.ipIDs {
		z := m.AddBinary("z", objZ(in.ipArea[id]))
		h.zs[j] = z
		for i := range db.IMPs {
			if in.ipOf[i] == j && lone[i] {
				terms = append(terms[:0], ilp.Term{Var: h.xs[i], Coef: 1}, ilp.Term{Var: z, Coef: -1})
				m.AddConstraint("fc", terms, ilp.LE, 0)
			}
		}
	}
	// Interface-area fixed charge per implementation group (merged
	// S-instructions). Skipped when merging is disabled — interface area
	// is then charged through objX per selected method. y_g counts the
	// group's S-instruction, and x_m ≤ y_g is emitted only when y_g
	// carries a cost, in the tie-break pass: in the area pass y_g costs
	// nothing and sits in no other row, so the links would bound nothing
	// the objective sees.
	for g := 0; g < ng; g++ {
		y := m.AddBinary("y", objYCount)
		// The merged S-instruction's interface area is the largest
		// area among its selected members: a_g ≥ c_m·x_m.
		a := m.AddVar("a", 0, in.grpArea[g], objGArea)
		h.as[g] = a
		for i, im := range db.IMPs {
			if in.grp[i] != g {
				continue
			}
			if objYCount != 0 {
				terms = append(terms[:0], ilp.Term{Var: h.xs[i], Coef: 1}, ilp.Term{Var: y, Coef: -1})
				m.AddConstraint("fy", terms, ilp.LE, 0)
			}
			if im.IfaceArea > 0 {
				terms = append(terms[:0], ilp.Term{Var: h.xs[i], Coef: im.IfaceArea}, ilp.Term{Var: a, Coef: -1})
				m.AddConstraint("ga", terms, ilp.LE, 0)
			}
		}
	}
	// (4) SC-PC conflicts.
	for _, c := range db.Conflicts {
		terms = append(terms[:0], ilp.Term{Var: h.xs[c[0]], Coef: 1}, ilp.Term{Var: h.xs[c[1]], Coef: 1})
		m.AddConstraint("conflict", terms, ilp.LE, 1)
	}
	// (3b) Aggregated fixed charge per (IP, s-call) pair of two or more
	// methods: an IP's members competing for one s-call can select at
	// most one of themselves, so together they need only one unit of the
	// IP indicator. The row stands in for its members' links x_m ≤ z_k,
	// which it implies (every x ≥ 0), and is integrally implied by
	// (1)+(3) yet fractionally strictly tighter than them — spreading an
	// s-call's coverage across an IP's methods costs the full fixed
	// charge instead of the maximum fraction. A pair of one method has
	// its link in (3), which is its (3b) row.
	for _, pair := range in.ipSC {
		if len(pair) < 2 {
			continue
		}
		terms = terms[:0]
		for _, i := range pair {
			terms = append(terms, ilp.Term{Var: h.xs[i], Coef: 1})
		}
		terms = append(terms, ilp.Term{Var: h.zs[in.ipOf[pair[0]]], Coef: -1})
		m.AddConstraint("fcs", terms, ilp.LE, 0)
	}
	// The cuts below read each path's per-IP gain capacities G_jk,
	// computed once here: row k of caps, in ipIDs order.
	caps := make([]int64, len(db.Paths)*nz)
	for k := range db.Paths {
		if in.required(k) > 0 {
			in.pathCapacity(k, caps[k*nz:(k+1)*nz])
		}
	}
	// (2b) Per-path IP gain capacity: with (3b), the gain path k can
	// draw from IP j is at most G_jk = Σ_sc max_{m ∈ j,sc} c_km per
	// unit of z_j, so Σ_j G_jk z_j ≥ required(k) is a valid cut that
	// makes fractional gain coverage pay area through the z variables —
	// exactly where the plain relaxation is weakest, since the area
	// objective lives on z. This typically lifts the root bound from a
	// small fraction of the optimum to most of it, which is what the
	// racing portfolio's acceptability judgment feeds on.
	for k := range db.Paths {
		rg := in.required(k)
		if rg <= 0 {
			continue
		}
		terms = terms[:0]
		for j, g := range caps[k*nz : (k+1)*nz] {
			if g > 0 {
				terms = append(terms, ilp.Term{Var: h.zs[j], Coef: float64(g)})
			}
		}
		if len(terms) > 0 {
			m.AddConstraint("ipcap", terms, ilp.GE, float64(rg))
		}
	}
	// (2c) Per-path cover (cardinality) cuts, in z- and x-space. For
	// path k, sort the per-IP gain capacities G_jk descending: if even
	// the κ−1 largest together fall short of the requirement, every
	// feasible selection activates at least κ IPs that contribute to the
	// path — Σ_j z_j ≥ κ over {j : G_jk > 0} is valid. The same argument
	// over per-s-call best method gains (constraint (1) admits one
	// method per s-call) yields Σ_i x_i ≥ λ over the path's contributing
	// methods. Fractional points love paying for gain with slivers of
	// many indicators; these cuts charge them whole indicators, which is
	// where the area objective lives. Like (3b)/(2b) they are valid
	// cuts: no integer-feasible point is removed, so the optimum — and
	// the lexicographic tie-break — are untouched.
	sorted := make([]int64, max(nz, len(db.SCalls)))
	for k := range db.Paths {
		rg := in.required(k)
		if rg <= 0 {
			continue
		}
		capacity := caps[k*nz : (k+1)*nz]
		if kappa := coverCount(append(sorted[:0], capacity...), rg); kappa >= 2 {
			terms = terms[:0]
			for j, g := range capacity {
				if g > 0 {
					terms = append(terms, ilp.Term{Var: h.zs[j], Coef: 1})
				}
			}
			m.AddConstraint("zcover", terms, ilp.GE, float64(kappa))
		}
		best := sorted[:len(db.SCalls)]
		clear(best)
		for i := range db.IMPs {
			if c := in.pathCoef(k, i); c > best[in.scOf[i]] {
				best[in.scOf[i]] = c
			}
		}
		if lambda := coverCount(best, rg); lambda >= 2 {
			terms = terms[:0]
			for i := range db.IMPs {
				if in.pathCoef(k, i) > 0 {
					terms = append(terms, ilp.Term{Var: h.xs[i], Coef: 1})
				}
			}
			m.AddConstraint("xcover", terms, ilp.GE, float64(lambda))
		}
	}
	// (3c) Fixed-charge bound tightening (root probing): if dropping IP
	// j leaves some path short of its requirement even with every other
	// IP at full capacity, z_j = 1 in every feasible selection. Forcing
	// the indicator commits its area in the root relaxation, which
	// lifts the bound before the search branches at all.
	for k := range db.Paths {
		rg := in.required(k)
		if rg <= 0 {
			continue
		}
		capacity := caps[k*nz : (k+1)*nz]
		var total int64
		for _, g := range capacity {
			total += g
		}
		for j, g := range capacity {
			if g > 0 && total-g < rg {
				terms = append(terms[:0], ilp.Term{Var: h.zs[j], Coef: 1})
				m.AddConstraint("force", terms, ilp.GE, 1)
			}
		}
	}
	return h
}

// coverCount is the cover-cut cardinality for a covering requirement:
// the minimum number of the positive capacities in caps whose sum
// reaches need, taken largest first. Returns 0 when need ≤ 0 and one
// more than the number of positive capacities when even all of them
// fall short (the caller's constraint is then infeasible on its own,
// which the LP discovers without the cut). It sorts caps.
func coverCount(caps []int64, need int64) int {
	if need <= 0 {
		return 0
	}
	slices.Sort(caps)
	var sum int64
	n := 0
	for i := len(caps) - 1; i >= 0 && caps[i] > 0; i-- {
		sum += caps[i]
		n++
		if sum >= need {
			return n
		}
	}
	return n + 1
}

// pathCapacity writes G_jk into capacity, one entry per IP in ipIDs
// order: the most gain path k can draw from IP j — per s-call, the best
// of the IP's competing methods (constraint (1) admits only one), summed
// over s-calls.
func (a *Analysis) pathCapacity(k int, capacity []int64) {
	clear(capacity)
	for _, pair := range a.ipSC {
		var best int64
		for _, i := range pair {
			best = max(best, a.pathCoef(k, i))
		}
		capacity[a.ipOf[pair[0]]] += best
	}
}

// areaTerms builds the area expression for the pinning constraint.
func (in *instance) areaTerms(h handles) []ilp.Term {
	terms := make([]ilp.Term, 0, len(h.zs)+max(len(h.xs), len(h.as)))
	for j, id := range in.ipIDs {
		terms = append(terms, ilp.Term{Var: h.zs[j], Coef: in.ipArea[id]})
	}
	if in.p.DisableMerging {
		for i, im := range in.db.IMPs {
			terms = append(terms, ilp.Term{Var: h.xs[i], Coef: im.IfaceArea})
		}
	} else {
		for _, a := range h.as {
			terms = append(terms, ilp.Term{Var: a, Coef: 1})
		}
	}
	return terms
}

// Solve runs the lexicographic optimization with no wall-clock budget
// (the Problem's discrete budget, if any, still applies).
func Solve(p Problem) (*Selection, error) { return SolveCtx(context.Background(), p) }

// SolveCtx runs the lexicographic optimization under the context's
// deadline and the Problem's Budget. Exhaustion degrades in stages
// rather than failing:
//
//   - budget expires after an incumbent exists → the incumbent is
//     returned with Status ilp.Feasible and its optimality Gap;
//   - budget expires with no incumbent at all → the GreedyBaseline
//     heuristic answers and the Selection is flagged Degraded;
//   - the context is canceled outright (context.Canceled, not a
//     deadline) → the caller wants out, and the cancellation error is
//     returned instead of a degraded answer.
func SolveCtx(ctx context.Context, p Problem) (*Selection, error) {
	if p.DB == nil {
		return nil, fmt.Errorf("selector: nil database")
	}
	if len(p.DB.IMPs) == 0 {
		return &Selection{Status: ilp.Infeasible}, nil
	}
	return solveBound(ctx, newInstance(p))
}

// solveBound is the lexicographic two-pass solve over an already bound
// instance; Analysis.Solve and SolveCtx both land here.
func solveBound(ctx context.Context, in *instance) (*Selection, error) {
	p := in.p

	// Pass 1: minimize area.
	ifaceObj := func(i int) float64 {
		if p.DisableMerging {
			return p.DB.IMPs[i].IfaceArea
		}
		return 0
	}
	h1 := in.build(ifaceObj, func(a float64) float64 { return a }, 0, 1)
	if p.areaFloor > 0 {
		h1.m.AddConstraint("area_floor", in.areaTerms(h1), ilp.GE, p.areaFloor-1e-6)
	}
	if p.OnIncumbent != nil {
		h1.m.OnIncumbent(func(pr ilp.Progress) {
			inc := Incumbent{Area: pr.Objective, Bound: pr.Bound, Gap: pr.Gap(), Nodes: pr.Nodes}
			if pr.Values != nil {
				sel := in.decode(h1, &ilp.Solution{Values: pr.Values}, pr.Nodes)
				sel.Status = ilp.Feasible
				sel.Gap = pr.Gap()
				inc.Sel = sel
			}
			p.OnIncumbent(inc)
		})
	}
	if p.OnBound != nil {
		h1.m.OnBound(func(pr ilp.Progress) { p.OnBound(pr.Bound) })
	}
	s1, err := h1.m.SolveCtx(ctx, p.Budget)
	if err != nil {
		return degradeOrFail(in, err)
	}
	switch s1.Status {
	case ilp.Optimal:
		// Proven minimum area; continue to the tie-break pass.
	case ilp.Feasible:
		// Anytime incumbent: the budget is spent, so skip the tie-break
		// pass and report the incumbent with its gap.
		sel := in.decode(h1, s1, s1.Nodes)
		sel.Status = ilp.Feasible
		sel.Gap = s1.Gap()
		sel.setPasses(s1.Stats, ilp.SearchStats{})
		return sel, nil
	default:
		sel := &Selection{Status: s1.Status, Nodes: s1.Nodes}
		sel.setPasses(s1.Stats, ilp.SearchStats{})
		return sel, nil
	}
	bestArea := s1.Objective

	// Pass 2: pin the area, minimize total gain (surplus) with a small
	// per-method tiebreak so the solver prefers fewer implementations.
	// Gains are integers, so a per-x weight < 1/n cannot change the gain
	// optimum. The pass searches only pass 1's leaves whose area bound is
	// within the pin, and it meets SolveWithin's contract: its rows are
	// pass 1's plus the x ≤ y links, which only this pass prices, and the
	// pin, whose row is pass 1's objective; the area floor, the one row
	// only pass 1 carries, lies below every pinned point.
	n := float64(len(p.DB.IMPs) + len(in.groups) + 1)
	h2 := in.build(
		func(i int) float64 { return float64(in.totalGain[i]) + 0.25/n },
		func(a float64) float64 { return 0 },
		0.5/n, 0,
	)
	limit := bestArea + 1e-6
	h2.m.AddConstraint("pin_area", in.areaTerms(h2), ilp.LE, limit)
	s2, err := h2.m.SolveWithin(ctx, p.Budget, s1, limit)
	if err != nil {
		if budget.IsExhausted(err) && !errors.Is(err, context.Canceled) {
			// The area pass already proved the optimum; fall back to its
			// assignment (h1/h2 share the variable layout) rather than
			// discarding it. Only the tie-break is unproven.
			sel := in.decode(h1, s1, s1.Nodes)
			sel.Status = ilp.Feasible
			sel.setPasses(s1.Stats, ilp.SearchStats{})
			return sel, nil
		}
		return nil, err
	}
	if s2.Status != ilp.Optimal && s2.Status != ilp.Feasible {
		// Should not happen (pass 1 was feasible); report defensively.
		sel := &Selection{Status: s2.Status, Nodes: s1.Nodes + s2.Nodes}
		sel.setPasses(s1.Stats, s2.Stats)
		return sel, nil
	}
	sel := in.decode(h2, s2, s1.Nodes+s2.Nodes)
	sel.setPasses(s1.Stats, s2.Stats)
	if s2.Status == ilp.Feasible {
		// Area is still provably minimal; only the surplus tie-break is
		// anytime, so the area gap stays zero.
		sel.Status = ilp.Feasible
	}
	return sel, nil
}

// degradeOrFail handles a budget-exhausted pass-1 solve that produced no
// incumbent: outright cancellation propagates as an error, while
// deadline/node exhaustion falls back to the greedy heuristic (over the
// same bound analysis, so nothing is re-derived) with the Selection
// flagged Degraded.
func degradeOrFail(in *instance, err error) (*Selection, error) {
	if !budget.IsExhausted(err) || errors.Is(err, context.Canceled) {
		return nil, err
	}
	sel := greedyBound(in)
	sel.Degraded = err.Error()
	if sel.Status == ilp.Optimal {
		// Greedy results are feasible, never proven optimal.
		sel.Status = ilp.Feasible
	}
	return sel, nil
}

// decode converts the ILP solution into a Selection.
func (in *instance) decode(h handles, sol *ilp.Solution, nodes int) *Selection {
	var chosen []int
	for i := range in.db.IMPs {
		if sol.IsSet(h.xs[i]) {
			chosen = append(chosen, i)
		}
	}
	return in.compose(chosen, nodes)
}

// compose assembles the Selection of a chosen index set: areas with
// fixed-charge sharing, total and per-path gains, merged S-instruction
// counts.
func (in *instance) compose(chosen []int, nodes int) *Selection {
	sel := &Selection{Status: ilp.Optimal, Nodes: nodes}
	usedIP := make([]bool, len(in.ipIDs))
	// grpUsed marks the groups of chosen methods and grpArea holds each
	// one's largest chosen interface area.
	grpUsed := make([]bool, len(in.groups))
	grpArea := make([]float64, len(in.groups))
	for _, i := range chosen {
		im := in.db.IMPs[i]
		sel.Chosen = append(sel.Chosen, im)
		sel.Gain += in.totalGain[i]
		sel.SCallsImplemented += len(im.SC.Sites)
		usedIP[in.ipOf[i]] = true
		g := in.grp[i]
		if !grpUsed[g] || im.IfaceArea > grpArea[g] {
			grpUsed[g], grpArea[g] = true, im.IfaceArea
		}
	}
	// Sum in the analysis's fixed orders, never map order: float
	// addition is not associative, and the area must be the same float64
	// on every run.
	for j, id := range in.ipIDs {
		if usedIP[j] {
			sel.Area += in.ipArea[id]
		}
	}
	if in.p.DisableMerging {
		for _, im := range sel.Chosen {
			sel.Area += im.IfaceArea
		}
		sel.SInstructions = len(sel.Chosen)
	} else {
		for g, used := range grpUsed {
			if used {
				sel.Area += grpArea[g]
				sel.SInstructions++
			}
		}
	}
	// Per-path achieved gains.
	sel.PathGains = make([]int64, len(in.db.Paths))
	for k := range in.db.Paths {
		for _, i := range chosen {
			sel.PathGains[k] += in.pathCoef(k, i)
		}
	}
	sort.Slice(sel.Chosen, func(a, b int) bool { return sel.Chosen[a].SC.Index < sel.Chosen[b].SC.Index })
	return sel
}
