// Package portfolio races independent selection engines — the
// covering-knapsack capacity bound's witness, the greedy baseline,
// LP-relaxation + rounding, and the exact branch and bound — over one
// shared selector.Analysis and delivers the first *acceptable* answer
// while the exact proof keeps streaming in behind it.
//
// Acceptability is a bound argument, not a hunch: a candidate selection
// with area A is acceptable once the best proven lower bound L on the
// optimal area (from the capacity bound, the LP relaxation or the exact
// engine's incumbent stream) satisfies (A − L) / max(1, A) ≤
// Config.Gap. A proven result — the exact engine's optimum, or an
// infeasibility proof from either the LP relaxation or the exact search
// — is always acceptable and also settles the race: remaining engines
// are canceled through the shared context the moment a proof lands.
//
// Incremental re-solve (Reselect) layers a selector.Delta onto the
// shared analysis (copy-on-write — unchanged per-path coefficient rows
// are reused by reference). The previous Selection enters the race in
// two ways, neither of which starts a solver from it: re-priced under
// the edit, it races as the Seed candidate; and when it was proven
// optimal, selector.Analysis.FloorShrink turns its area into a proven
// floor on the edited optimum. Every engine still solves from scratch,
// so with Gap 0 the portfolio's settled result is the exact solver's,
// byte for byte.
package portfolio

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"time"

	"partita/internal/ilp"
	"partita/internal/selector"
)

// Engine names one racing engine.
type Engine string

const (
	// Greedy is the gain/area-ratio baseline (selector.GreedyBaseline):
	// microseconds, no proof, no bound.
	Greedy Engine = "greedy"
	// LPRound solves one LP relaxation and rounds (ilp.SolveLPRound):
	// milliseconds, carries the LP lower bound, proves infeasibility.
	LPRound Engine = "lpround"
	// Exact is the branch and bound: the only engine that
	// proves optimality.
	Exact Engine = "exact"
	// Seed is not a solver: on an incremental re-solve it is the
	// previous selection re-priced under the edited analysis
	// (selector.Analysis.Evaluate) and offered before any engine has
	// started — the designer's old answer, re-validated in
	// microseconds. It wins only when a bound proves it acceptable.
	Seed Engine = "seed"
	// Capacity is the covering-knapsack bound's witness
	// (selector.Analysis.CapacityWitness): the IP subset that proves
	// the area floor, instantiated into a selection and offered at race
	// start. Bound and witness take tens of microseconds and a few
	// kilobytes on the paper's models, so on models where the enriched
	// knapsack is tight the race is won before any engine has started.
	Capacity Engine = "capacity"
)

// Engines lists every racing engine, in cost order.
var Engines = []Engine{Seed, Capacity, Greedy, LPRound, Exact}

// Config tunes one race.
type Config struct {
	// Gap is the relative area gap at which a bounded candidate becomes
	// acceptable; 0 accepts only proven results.
	Gap float64
	// OnIncumbent, when non-nil, streams the exact engine's anytime
	// incumbents (serialized; same contract as Problem.OnIncumbent).
	OnIncumbent func(selector.Incumbent)
	// OnFirst, when non-nil, is invoked exactly once — from whichever
	// engine goroutine crossed the threshold — when the first acceptable
	// answer lands. It must be fast; the race continues behind it.
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

// state is the shared blackboard of one race.
type state struct {
	mu    sync.Mutex
	cfg   Config
	start time.Time

	lower     float64 // best proven lower bound on the optimal area
	bestSel   *selector.Selection
	bestEng   Engine
	infeas    bool // some engine proved infeasibility
	infeasEng Engine

	first   *Answer
	deliver func(Answer) // cfg.OnFirst, called outside mu
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

// raiseLower folds a proven lower bound in and re-checks acceptability.
// Callers hold no lock.
func (st *state) raiseLower(lb float64) {
	if math.IsInf(lb, 0) || math.IsNaN(lb) {
		return
	}
	st.mu.Lock()
	if lb > st.lower {
		st.lower = lb
	}
	a := st.checkFirstLocked(false, Engine(""), nil)
	st.mu.Unlock()
	if a != nil && st.deliver != nil {
		st.deliver(*a)
	}
}

// offer proposes a bounded candidate selection. proven marks a finished
// proof (exact optimum or an infeasibility proof), which settles the
// race. Callers hold no lock.
func (st *state) offer(eng Engine, sel *selector.Selection, proven bool) {
	st.mu.Lock()
	switch sel.Status {
	case ilp.Infeasible:
		if proven {
			st.infeas = true
			st.infeasEng = eng
		}
	case ilp.Optimal, ilp.Feasible:
		if sel.Degraded == "" && (st.bestSel == nil || sel.Area < st.bestSel.Area) {
			st.bestSel, st.bestEng = sel, eng
		}
		if proven && sel.Status == ilp.Optimal {
			// The proven optimum is its own lower bound.
			if sel.Area > st.lower {
				st.lower = sel.Area
			}
		}
	}
	a := st.checkFirstLocked(proven, eng, sel)
	st.mu.Unlock()
	if a != nil && st.deliver != nil {
		st.deliver(*a)
	}
}

// checkFirstLocked records the first-acceptable answer once — either
// the proposing engine just delivered a proof, or the best bounded
// candidate now sits within the gap threshold — and returns it for the
// caller to deliver outside the lock (so OnFirst runs on the engine
// goroutine that crossed the threshold, never under mu, never twice).
func (st *state) checkFirstLocked(proven bool, eng Engine, sel *selector.Selection) *Answer {
	if st.first != nil {
		return nil
	}
	var a Answer
	switch {
	case proven && sel != nil && (sel.Status == ilp.Infeasible || sel.Status == ilp.Optimal):
		a = Answer{Engine: eng, Sel: sel, Gap: 0}
	case st.bestSel != nil && relGap(st.bestSel.Area, st.lower) <= st.cfg.Gap:
		a = Answer{Engine: st.bestEng, Sel: st.bestSel, Gap: relGap(st.bestSel.Area, st.lower)}
	default:
		return nil
	}
	a.Elapsed = time.Since(st.start)
	st.first = &a
	return &a
}

// Run races the engines over an (optionally Delta-derived) analysis.
// seed, when non-nil, is a previous selection: Run re-prices it under
// the analysis and races it as the Seed engine. Run returns when the
// race settles: a proof arrived (losers are canceled), every engine
// returned, or ctx expired with at least one candidate in hand. With no
// candidate and no proof, the first engine error (preferring the exact
// engine's) is returned.
func Run(ctx context.Context, an *selector.Analysis, p selector.Problem, seed *selector.Selection, cfg Config) (*Result, error) {
	if p.DB == nil {
		p.DB = an.DB()
	}
	st := &state{
		cfg:     cfg,
		start:   time.Now(),
		lower:   math.Inf(-1),
		deliver: cfg.OnFirst,
	}
	if f := p.AreaFloor(); f > 0 {
		// An incremental re-solve's proven floor is a head start for the
		// acceptability test: candidates are judged against it from the
		// first microsecond, not only once the LP bound lands.
		st.lower = f
	}
	// The IP-level covering-knapsack bound (selector.CapacityWitness) is
	// a proven area floor. Its DP keeps each row as a short step list,
	// so it runs here, synchronously, in tens of microseconds, before
	// any engine has built a model: the judge holds it from the start,
	// and when it beats the carried-over floor it also tightens the
	// exact engine's pass-1 cut. Valid cuts never move the optimum, so
	// the settled result stays byte-for-byte. The bound's witness
	// selection, when it re-prices feasible, races as the first
	// candidate — on models where the knapsack is tight, candidate and
	// floor meet instantly and the race is won before any model is
	// built.
	qb, qw := an.CapacityWitness(p)
	if qb > 0 && !math.IsInf(qb, 0) {
		if qb > st.lower {
			st.lower = qb
		}
		if qb > p.AreaFloor() {
			p.SetAreaFloor(qb)
		}
	}
	if qw != nil {
		st.offer(Capacity, qw, false)
	}
	if seed != nil {
		// Re-price the previous answer under the edited analysis and race
		// it from the first microsecond: against a carried-over floor it
		// is often acceptable before any engine has produced a node.
		if ev := an.Evaluate(p, seed); ev != nil {
			st.offer(Seed, ev, false)
		}
	}
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	var exactSel *selector.Selection
	var exactErr, lpErr error

	// Greedy: instant, unproven. Its "Optimal" status only means the
	// requirement was met; demote before anyone can mistake it for a
	// proof.
	wg.Add(1)
	go func() {
		defer wg.Done()
		g := an.Greedy(p)
		if g.Status == ilp.Optimal {
			g = cloneAs(g, ilp.Feasible)
		}
		if g.Status == ilp.Feasible {
			st.offer(Greedy, g, false)
		}
		// A greedy Infeasible proves nothing; drop it.
	}()

	// LP + rounding: one simplex solve; its bound is what usually makes
	// another engine's candidate acceptable. An infeasible relaxation is
	// a proof and settles the race. Even a failed rounding still carries
	// the proven LP bound (raiseLower ignores the non-finite bound of a
	// relaxation that never solved). On a single-CPU host the engine is
	// not raced: racing is time-slicing there, and the standalone root
	// relaxation duplicates the exact engine's own root node — its only
	// effect is to push the first exact incumbent later.
	if runtime.GOMAXPROCS(0) > 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sel, bound, err := an.LPRound(raceCtx, p, nil)
			if err != nil {
				st.raiseLower(bound)
				lpErr = err
				return
			}
			st.raiseLower(bound)
			switch sel.Status {
			case ilp.Infeasible:
				st.offer(LPRound, sel, true)
				cancel()
			case ilp.Feasible:
				st.offer(LPRound, sel, false)
			}
		}()
	}

	// Exact: streams incumbents — each one both raises the proven bound
	// and races as a candidate in its own right, which is what makes the
	// portfolio genuinely anytime: branch and bound typically finds the
	// optimum early and spends the rest of the solve proving it, so the
	// first acceptable answer usually lands orders of magnitude before
	// the proof that settles the race.
	wg.Add(1)
	go func() {
		defer wg.Done()
		p2 := p
		obs := cfg.OnIncumbent
		p2.OnIncumbent = func(inc selector.Incumbent) {
			st.raiseLower(inc.Bound)
			if inc.Sel != nil {
				st.offer(Exact, inc.Sel, false)
			}
			if obs != nil {
				obs(inc)
			}
		}
		p2.OnBound = st.raiseLower
		sel, err := an.Solve(raceCtx, p2)
		if err != nil {
			exactErr = err
			return
		}
		exactSel = sel
		proven := sel.Degraded == "" && (sel.Status == ilp.Optimal || sel.Status == ilp.Infeasible)
		st.offer(Exact, sel, proven)
		if proven {
			cancel()
		}
	}()

	wg.Wait()

	st.mu.Lock()
	defer st.mu.Unlock()
	res := &Result{Settled: time.Since(st.start), Seeded: seed != nil}

	switch {
	case exactSel != nil && exactSel.Degraded == "" &&
		(exactSel.Status == ilp.Optimal || exactSel.Status == ilp.Infeasible):
		// Proven: the settled answer is the exact engine's, byte for
		// byte — this is what makes the gap-0 portfolio equivalent to a
		// cold exact solve.
		res.Sel, res.Engine, res.Gap = exactSel, Exact, 0
	case st.infeas:
		res.Sel = &selector.Selection{Status: ilp.Infeasible}
		res.Engine, res.Gap = st.infeasEng, 0
	case exactSel != nil && exactSel.Status == ilp.Feasible && exactSel.Degraded == "" &&
		(st.bestSel == nil || exactSel.Area <= st.bestSel.Area):
		// Anytime incumbent from a spent budget: prefer it over equal-
		// area heuristics (it carries the search's own gap).
		res.Sel, res.Engine = exactSel, Exact
		res.Gap = relGap(exactSel.Area, st.lower)
		if exactSel.Gap < res.Gap {
			res.Gap = exactSel.Gap
		}
	case st.bestSel != nil:
		res.Sel, res.Engine = st.bestSel, st.bestEng
		res.Gap = relGap(st.bestSel.Area, st.lower)
	case exactSel != nil:
		// Degraded greedy fallback from the exact path: better than an
		// error under an exhausted budget.
		res.Sel, res.Engine = exactSel, Exact
		res.Gap = math.Inf(1)
	default:
		if exactErr != nil {
			return nil, exactErr
		}
		if lpErr != nil && !errors.Is(lpErr, ilp.ErrNoRounding) && !errors.Is(lpErr, context.Canceled) {
			return nil, lpErr
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, errors.New("portfolio: no engine produced an answer")
	}

	if res.Sel != nil && res.Sel.Status == ilp.Feasible && res.Sel.Gap < res.Gap {
		res.Gap = res.Sel.Gap
	}
	if res.Sel != nil && res.Sel.Status == ilp.Feasible && !math.IsInf(res.Gap, 0) {
		cp := *res.Sel
		cp.Gap = res.Gap
		res.Sel = &cp
	}

	if st.first != nil {
		res.First = *st.first
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
	if r.Sel == nil || r.First.Sel == nil {
		return false
	}
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

// cloneAs copies a selection with a different status.
func cloneAs(s *selector.Selection, st ilp.Status) *selector.Selection {
	cp := *s
	cp.Status = st
	return &cp
}

// Reselect is the incremental re-solve: apply d to the shared analysis
// and problem (copy-on-write; unchanged coefficient rows are shared by
// reference) and race the engines, with the previous selection
// re-priced as the Seed candidate. It returns the race result together
// with the derived analysis so the caller can chain further edits off
// it. prev may be nil (a cold portfolio solve of the edited problem).
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
