// Package portfolio runs the selection engines over one shared
// selector.Analysis — the covering-knapsack capacity bound's witness,
// the previous answer on an incremental re-solve, the greedy baseline,
// then the exact branch and bound, in that order and on the caller's
// goroutine — and delivers the first *acceptable* answer while the
// exact proof keeps streaming in behind it.
//
// Acceptability is a bound argument, not a hunch: a candidate selection
// with area A is acceptable once the best proven lower bound L on the
// optimal area (from the capacity bound, a carried-over floor, or the
// exact engine's bound and incumbent stream) satisfies
// (A − L) / max(1, A) ≤ Config.Gap. The exact engine's proof — its
// optimum or an infeasibility proof — is always acceptable and settles
// the race.
//
// Incremental re-solve (Reselect) layers a selector.Delta onto the
// shared analysis (copy-on-write — unchanged per-path coefficient rows
// are reused by reference). The previous Selection enters the race in
// two ways, neither of which starts a solver from it: re-priced under
// the edit, it races as the Seed candidate; and when it was proven
// optimal for the problem being edited, selector.Analysis.FloorShrink
// turns its area into a proven floor on the edited optimum. Every
// engine still solves from scratch, so with Gap 0 the portfolio's
// settled result is the exact solver's, byte for byte.
package portfolio

import (
	"context"
	"math"
	"time"

	"partita/internal/ilp"
	"partita/internal/selector"
)

// Engine names one engine of the race.
type Engine string

const (
	// Greedy is the gain/area-ratio baseline (selector.GreedyBaseline):
	// microseconds, no proof, no bound.
	Greedy Engine = "greedy"
	// Exact is the branch and bound: the only engine that
	// proves optimality.
	Exact Engine = "exact"
	// Seed is not a solver: on an incremental re-solve it is the
	// previous selection re-priced under the edited analysis
	// (selector.Analysis.Evaluate) and offered before any solver has
	// run — the designer's old answer, re-validated in microseconds. It
	// wins only when a bound proves it acceptable.
	Seed Engine = "seed"
	// Capacity is the covering-knapsack bound's witness
	// (selector.Analysis.CapacityWitness): the IP subset that proves
	// the area floor, instantiated into a selection and offered at race
	// start. Bound and witness take tens of microseconds and a few
	// kilobytes on the paper's models, so on models where the enriched
	// knapsack is tight the race is won before any model is built.
	Capacity Engine = "capacity"
)

// Config tunes one race.
type Config struct {
	// Gap is the relative area gap at which a bounded candidate becomes
	// acceptable; 0 accepts only proven results.
	Gap float64
	// OnIncumbent, when non-nil, streams the exact engine's anytime
	// incumbents (same contract as Problem.OnIncumbent).
	OnIncumbent func(selector.Incumbent)
	// OnFirst, when non-nil, is invoked exactly once, synchronously on
	// the caller's goroutine, when the first acceptable answer lands. It
	// must be fast: the exact solve continues after it returns.
	OnFirst func(Answer)
}

// Answer is one delivered answer of a race.
type Answer struct {
	// Engine produced the answer.
	Engine Engine
	Sel    *selector.Selection
	// Gap is the proven relative area gap at delivery time (0 for
	// proven results).
	Gap float64
	// Elapsed is the time from race start to delivery.
	Elapsed time.Duration
}

// Result is the settled outcome of a race.
type Result struct {
	// Sel is the settled selection: the exact engine's result when it
	// finished (proven, or its best anytime incumbent), otherwise the
	// best bounded candidate another engine produced.
	Sel *selector.Selection
	// Engine produced Sel.
	Engine Engine
	// Gap is the settled relative area gap (0 when proven).
	Gap float64
	// First is the race winner: the first acceptable answer delivered.
	// When no engine crossed the threshold before the race settled,
	// First is the settled answer itself.
	First Answer
	// Settled is the time from race start to the settled result.
	Settled time.Duration
	// Confirmed reports that the race settled with a proof and the
	// proof agrees with the first answer (same optimal area, or both
	// infeasible) — i.e. the fast answer the caller may already have
	// acted on was right.
	Confirmed bool
	// Seeded reports that the race was given a previous selection (an
	// incremental re-solve), which raced re-priced as the Seed engine.
	Seeded bool
}

// judge holds one race's best proven lower bound and best candidate,
// and delivers the first acceptable answer.
type judge struct {
	cfg   Config
	start time.Time

	lower   float64 // best proven lower bound on the optimal area
	bestSel *selector.Selection
	bestEng Engine
	first   *Answer
}

// relGap is the portfolio's acceptability metric: the relative gap of
// area A against lower bound L, +Inf when no finite bound exists.
func relGap(area, lower float64) float64 {
	if math.IsInf(lower, 0) || math.IsNaN(lower) {
		return math.Inf(1)
	}
	g := (area - lower) / math.Max(1, area)
	if g < 0 {
		return 0
	}
	return g
}

// raiseLower folds a finite proven lower bound in and re-checks
// acceptability.
func (j *judge) raiseLower(lb float64) {
	if lb > j.lower && !math.IsInf(lb, 1) {
		j.lower = lb
		j.check()
	}
}

// offer proposes a candidate selection. proven marks the exact engine's
// finished proof (an optimum or an infeasibility proof), which is
// delivered at once when nothing was before it.
func (j *judge) offer(eng Engine, sel *selector.Selection, proven bool) {
	if (sel.Status == ilp.Optimal || sel.Status == ilp.Feasible) && sel.Degraded == "" {
		if j.bestSel == nil || sel.Area < j.bestSel.Area {
			j.bestSel, j.bestEng = sel, eng
		}
		if proven && sel.Area > j.lower {
			// The proven optimum is its own lower bound.
			j.lower = sel.Area
		}
	}
	if proven {
		j.deliver(Answer{Engine: eng, Sel: sel})
		return
	}
	j.check()
}

// check delivers the best candidate once it sits within the gap.
func (j *judge) check() {
	if j.bestSel == nil {
		return
	}
	if g := relGap(j.bestSel.Area, j.lower); g <= j.cfg.Gap {
		j.deliver(Answer{Engine: j.bestEng, Sel: j.bestSel, Gap: g})
	}
}

// deliver records a as the first acceptable answer, unless one already
// was, and hands it to OnFirst.
func (j *judge) deliver(a Answer) {
	if j.first != nil {
		return
	}
	a.Elapsed = time.Since(j.start)
	j.first = &a
	if j.cfg.OnFirst != nil {
		j.cfg.OnFirst(a)
	}
}

// Run races the engines over an (optionally Delta-derived) analysis,
// one after another on the caller's goroutine: the capacity bound and
// its witness, then seed — a previous selection, when non-nil, re-priced
// under the analysis — then greedy, then the exact solve, whose
// incumbents and bounds reach the judge as the search finds them. Run
// returns once the exact solve has: with its proof, its anytime
// incumbent or the best bounded candidate when the budget or ctx ran
// out first, or the exact engine's error when no engine produced a
// candidate.
func Run(ctx context.Context, an *selector.Analysis, p selector.Problem, seed *selector.Selection, cfg Config) (*Result, error) {
	if p.DB == nil {
		p.DB = an.DB()
	}
	j := &judge{cfg: cfg, start: time.Now(), lower: math.Inf(-1)}
	if f := p.AreaFloor(); f > 0 {
		// An incremental re-solve's proven floor is a head start for the
		// acceptability test: candidates are judged against it from the
		// first microsecond.
		j.lower = f
	}
	// The IP-level covering-knapsack bound (selector.CapacityWitness) is
	// a proven area floor. Its DP keeps each row as a short step list,
	// so it runs in tens of microseconds, before any model is built: the
	// judge holds it from the start, and when it beats the carried-over
	// floor it also tightens the exact engine's pass-1 cut. Valid cuts
	// never move the optimum, so the settled result stays byte-for-byte.
	// The bound's witness selection, when it re-prices feasible, is the
	// first candidate — on models where the knapsack is tight, candidate
	// and floor meet instantly and the race is won before any model is
	// built.
	qb, qw := an.CapacityWitness(p)
	if qb > 0 && !math.IsInf(qb, 0) {
		j.raiseLower(qb)
		if qb > p.AreaFloor() {
			p.SetAreaFloor(qb)
		}
	}
	if qw != nil {
		j.offer(Capacity, qw, false)
	}
	if seed != nil {
		// Against a carried-over floor the re-priced previous answer is
		// often acceptable before any solver has run.
		if ev := an.Evaluate(p, seed); ev != nil {
			j.offer(Seed, ev, false)
		}
	}
	// Greedy's "Optimal" status only means the requirement was met;
	// demote it before anyone can mistake it for a proof. A greedy
	// Infeasible proves nothing.
	if g := an.Greedy(p); g.Status == ilp.Optimal {
		g.Status = ilp.Feasible
		j.offer(Greedy, g, false)
	}

	// Exact: each streamed incumbent both raises the proven bound and is
	// a candidate in its own right. Branch and bound typically finds the
	// optimum early and spends the rest of the solve proving it, so the
	// first acceptable answer usually lands long before the proof.
	obs := cfg.OnIncumbent
	p.OnIncumbent = func(inc selector.Incumbent) {
		j.raiseLower(inc.Bound)
		if inc.Sel != nil {
			j.offer(Exact, inc.Sel, false)
		}
		if obs != nil {
			obs(inc)
		}
	}
	p.OnBound = j.raiseLower
	exactSel, err := an.Solve(ctx, p)
	proven := err == nil && exactSel.Degraded == "" &&
		(exactSel.Status == ilp.Optimal || exactSel.Status == ilp.Infeasible)
	if err == nil {
		j.offer(Exact, exactSel, proven)
	}

	res := &Result{Settled: time.Since(j.start), Seeded: seed != nil}
	switch {
	case proven:
		// The settled answer is the exact engine's, byte for byte —
		// this is what makes the gap-0 portfolio equivalent to a cold
		// exact solve.
		res.Sel, res.Engine = exactSel, Exact
	case err == nil && exactSel.Status == ilp.Feasible && exactSel.Degraded == "" &&
		exactSel.Area <= j.bestSel.Area:
		// Anytime incumbent from a spent budget (offered above, so
		// bestSel is set): prefer it over equal-area heuristics (it
		// carries the search's own gap).
		res.Sel, res.Engine = exactSel, Exact
		res.Gap = math.Min(relGap(exactSel.Area, j.lower), exactSel.Gap)
	case j.bestSel != nil:
		res.Sel, res.Engine = j.bestSel, j.bestEng
		res.Gap = relGap(j.bestSel.Area, j.lower)
	case err == nil:
		// Degraded greedy fallback from the exact path: better than an
		// error under an exhausted budget.
		res.Sel, res.Engine, res.Gap = exactSel, Exact, math.Inf(1)
	default:
		return nil, err
	}

	if res.Sel.Status == ilp.Feasible && !math.IsInf(res.Gap, 0) {
		cp := *res.Sel
		cp.Gap = res.Gap
		res.Sel = &cp
	}

	if j.first != nil {
		res.First = *j.first
	} else {
		res.First = Answer{Engine: res.Engine, Sel: res.Sel, Gap: res.Gap, Elapsed: res.Settled}
	}
	res.Confirmed = settledConfirms(res)
	return res, nil
}

// settledConfirms reports whether the settled proof agrees with the
// first-delivered answer: both infeasible, or the first answer's area
// equals the proven optimal area.
func settledConfirms(r *Result) bool {
	proven := r.Gap == 0 &&
		(r.Sel.Status == ilp.Infeasible || (r.Sel.Status == ilp.Optimal && r.Sel.Degraded == ""))
	if !proven {
		return false
	}
	if r.Sel.Status == ilp.Infeasible {
		return r.First.Sel.Status == ilp.Infeasible
	}
	return r.First.Sel.Status != ilp.Infeasible &&
		math.Abs(r.First.Sel.Area-r.Sel.Area) <= 1e-9
}

// Reselect is the incremental re-solve: apply d to the shared analysis
// and problem (copy-on-write; unchanged coefficient rows are shared by
// reference) and race the engines, with the previous selection
// re-priced as the Seed candidate. It returns the race result together
// with the derived analysis so the caller can chain further edits off
// it. prev may be nil (a cold portfolio solve of the edited problem).
//
// An Optimal prev is taken as the proven optimum of p over an, and its
// area, less what the edit can take off, becomes a floor on the edited
// optimum. A selection proven for any other problem must not reach
// Reselect as Optimal: pass it with another status, and it races as a
// seed candidate only.
func Reselect(ctx context.Context, an *selector.Analysis, prev *selector.Selection, d selector.Delta, p selector.Problem, cfg Config) (*Result, *selector.Analysis, error) {
	na, err := an.Apply(d)
	if err != nil {
		return nil, nil, err
	}
	orig := p
	p, err = na.ApplyProblem(d, p)
	if err != nil {
		return nil, nil, err
	}
	p.DB = na.DB()
	// A proven previous optimum survives the edit as an area floor when
	// the edit can only shrink the feasible set or shift areas: the new
	// optimum cannot drop below prev.Area minus the total possible area
	// decrease. The floor is both a pass-1 cut (the exact engine prunes
	// at it) and the race's opening lower bound, against which the Seed
	// candidate can be accepted at once. Conservatively skipped whenever a gain rose or a requirement
	// loosened — correctness never depends on the floor being available.
	if prev != nil && prev.Status == ilp.Optimal && prev.Degraded == "" {
		if shrink, ok := an.FloorShrink(d); ok && !loosened(len(na.DB().Paths), orig, p) {
			if f := prev.Area - shrink; f > 0 {
				p.SetAreaFloor(f)
			}
		}
	}
	res, err := Run(ctx, na, p, prev, cfg)
	if err != nil {
		return nil, na, err
	}
	return res, na, nil
}

// loosened reports whether any path's effective required gain dropped
// from old to new — the edit direction that invalidates a previous
// optimum as a floor (a looser requirement can admit cheaper covers).
func loosened(nPaths int, old, new selector.Problem) bool {
	eff := func(p selector.Problem, k int) int64 {
		if k < len(p.PerPath) && p.PerPath[k] >= 0 {
			return p.PerPath[k]
		}
		return p.Required
	}
	for k := 0; k < nPaths; k++ {
		if eff(new, k) < eff(old, k) {
			return true
		}
	}
	return false
}
