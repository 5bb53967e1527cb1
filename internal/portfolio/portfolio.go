// Package portfolio runs the selection engines over one shared
// selector.Analysis — the covering-knapsack capacity bound's witness,
// the greedy baseline, then the exact branch and bound, in that order
// and on the caller's goroutine — and delivers the first *acceptable*
// answer while the exact proof keeps streaming in behind it.
//
// Acceptability is a bound argument, not a hunch: a candidate selection
// with area A is acceptable once the best proven lower bound L on the
// optimal area (from the capacity bound, or the exact engine's bound
// and incumbent stream) satisfies (A − L) / max(1, A) ≤ Config.Gap. The
// exact engine's proof — its optimum or an infeasibility proof — is
// always acceptable and settles the race.
//
// Every race, fresh or edited, solves the problem it is given from
// scratch: an edited problem comes from selector.Analysis.Apply and
// ApplyProblem, which share every unchanged structure with the parent
// analysis. Prior knowledge enters a race only as the capacity bound's
// floor, so with Gap 0 the settled result is the exact solver's, byte
// for byte.
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
// its witness, then greedy, then the exact solve, whose incumbents and
// bounds reach the judge as the search finds them. Run returns once the
// exact solve has: with its proof, its anytime incumbent or the best
// bounded candidate when the budget or ctx ran out first, or the exact
// engine's error when no engine produced a candidate.
func Run(ctx context.Context, an *selector.Analysis, p selector.Problem, cfg Config) (*Result, error) {
	if p.DB == nil {
		p.DB = an.DB()
	}
	j := &judge{cfg: cfg, start: time.Now(), lower: math.Inf(-1)}
	// The IP-level covering-knapsack bound (selector.CapacityWitness) is
	// a proven area floor. Its DP keeps each row as a short step list,
	// so it runs in tens of microseconds, before any model is built: the
	// judge holds it from the start, and it is the exact engine's pass-1
	// cut. Valid cuts never move the optimum, so the settled result
	// stays byte-for-byte. The bound's witness selection, when it
	// re-prices feasible, is the first candidate — on models where the
	// knapsack is tight, candidate and floor meet instantly and the race
	// is won before any model is built.
	qb, qw := an.CapacityWitness(p)
	if qb > 0 && !math.IsInf(qb, 0) {
		j.raiseLower(qb)
		p.SetAreaFloor(qb)
	}
	if qw != nil {
		j.offer(Capacity, qw, false)
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

	res := &Result{Settled: time.Since(j.start)}
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
