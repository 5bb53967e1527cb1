package selector

// Incremental re-solve support: a Delta describes the single-field edits
// an interactive design loop makes (tweak one IP's area, one method's
// gain, one path's required gain), and Analysis.Apply turns the shared
// immutable Analysis into a derived one with only the affected entries
// rewritten. Everything untouched — the group structure, interface
// areas, the per-path frequency matrix, and every coefficient row when
// no gain changed — is shared with the parent analysis by reference, so
// an edit solve re-derives nothing from the CDFG. What an edit solve
// carries over from the previous one is a proven floor on the optimal
// area (FloorShrink), installed with Problem.SetAreaFloor.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"partita/internal/ilp"
	"partita/internal/imp"
)

// Delta is one batch of edits to a selection problem. The zero value
// edits nothing. Area and gain edits derive a new Analysis (Apply);
// requirement edits only reshape the Problem (ApplyProblem).
type Delta struct {
	// IPArea maps IP IDs to replacement silicon areas.
	IPArea map[string]float64 `json:"ipArea,omitempty"`
	// IMPGain maps IMP IDs to replacement per-execution gains; the
	// method's total and per-path gains are rescaled through its
	// unchanged site frequencies.
	IMPGain map[string]int64 `json:"impGain,omitempty"`
	// Required, when non-nil, replaces the uniform required gain.
	Required *int64 `json:"required,omitempty"`
	// PathRequired maps execution-path indices to per-path required-gain
	// overrides (these take precedence over Required on their paths).
	PathRequired map[int]int64 `json:"pathRequired,omitempty"`
}

// Empty reports whether the delta edits nothing.
func (d Delta) Empty() bool {
	return len(d.IPArea) == 0 && len(d.IMPGain) == 0 && d.Required == nil && len(d.PathRequired) == 0
}

// Merge returns d with e layered on top: e's edits win where both touch
// the same field. Neither receiver is mutated, so a job's edit history
// can be folded left into one cumulative delta.
func (d Delta) Merge(e Delta) Delta {
	out := Delta{}
	if len(d.IPArea)+len(e.IPArea) > 0 {
		out.IPArea = make(map[string]float64, len(d.IPArea)+len(e.IPArea))
		for k, v := range d.IPArea {
			out.IPArea[k] = v
		}
		for k, v := range e.IPArea {
			out.IPArea[k] = v
		}
	}
	if len(d.IMPGain)+len(e.IMPGain) > 0 {
		out.IMPGain = make(map[string]int64, len(d.IMPGain)+len(e.IMPGain))
		for k, v := range d.IMPGain {
			out.IMPGain[k] = v
		}
		for k, v := range e.IMPGain {
			out.IMPGain[k] = v
		}
	}
	if r := e.Required; r != nil {
		v := *r
		out.Required = &v
	} else if r := d.Required; r != nil {
		v := *r
		out.Required = &v
	}
	if len(d.PathRequired)+len(e.PathRequired) > 0 {
		out.PathRequired = make(map[int]int64, len(d.PathRequired)+len(e.PathRequired))
		for k, v := range d.PathRequired {
			out.PathRequired[k] = v
		}
		for k, v := range e.PathRequired {
			out.PathRequired[k] = v
		}
	}
	return out
}

// Apply returns an Analysis with d's area and gain edits applied,
// sharing every untouched structure with the receiver. The receiver is
// never mutated — it keeps serving concurrent solves — and applying an
// empty (area/gain-wise) delta returns the receiver itself. Edits must
// name existing IPs/IMPs and stay non-negative and finite.
func (a *Analysis) Apply(d Delta) (*Analysis, error) {
	if len(d.IPArea) == 0 && len(d.IMPGain) == 0 {
		return a, nil
	}
	na := *a
	if len(d.IPArea) > 0 {
		ipArea := make(map[string]float64, len(a.ipArea))
		for k, v := range a.ipArea {
			ipArea[k] = v
		}
		for id, area := range d.IPArea {
			if _, ok := ipArea[id]; !ok {
				return nil, fmt.Errorf("selector: delta edits unknown IP %q", id)
			}
			if area < 0 || math.IsNaN(area) || math.IsInf(area, 0) {
				return nil, fmt.Errorf("selector: delta sets IP %q area to invalid %g", id, area)
			}
			ipArea[id] = area
		}
		na.ipArea = ipArea
	}
	if len(d.IMPGain) > 0 {
		idx := make(map[string]int, len(a.db.IMPs))
		for i, im := range a.db.IMPs {
			idx[im.ID] = i
		}
		gpe := append([]int64(nil), a.gainPerExec...)
		tot := append([]int64(nil), a.totalGain...)
		for id, g := range d.IMPGain {
			i, ok := idx[id]
			if !ok {
				return nil, fmt.Errorf("selector: delta edits unknown IMP %q", id)
			}
			if g < 0 {
				return nil, fmt.Errorf("selector: delta sets IMP %q gain to negative %d", id, g)
			}
			gpe[i] = g
			tot[i] = g * a.db.IMPs[i].SC.TotalFreq
		}
		na.gainPerExec, na.totalGain = gpe, tot
		coef := make([][]int64, len(a.coef))
		for k := range a.coef {
			row := append([]int64(nil), a.coef[k]...)
			for id := range d.IMPGain {
				i := idx[id]
				row[i] = a.freq[k][i] * gpe[i]
			}
			coef[k] = row
		}
		na.coef = coef
		na.maxGain = a.maxGainOf(tot)
	}
	return &na, nil
}

// ApplyProblem returns p with d's requirement edits applied: Required
// replaces the uniform requirement, and PathRequired entries become
// per-path overrides (merged over any existing p.PerPath).
func (a *Analysis) ApplyProblem(d Delta, p Problem) (Problem, error) {
	if d.Required != nil {
		if *d.Required < 0 {
			return p, fmt.Errorf("selector: delta sets negative required gain %d", *d.Required)
		}
		p.Required = *d.Required
	}
	if len(d.PathRequired) > 0 {
		per := make([]int64, len(a.db.Paths))
		for k := range per {
			per[k] = -1
		}
		copy(per, p.PerPath)
		for k, rg := range d.PathRequired {
			if k < 0 || k >= len(a.db.Paths) {
				return p, fmt.Errorf("selector: delta edits unknown path %d (db has %d)", k, len(a.db.Paths))
			}
			if rg < 0 {
				return p, fmt.Errorf("selector: delta sets negative required gain %d on path %d", rg, k)
			}
			per[k] = rg
		}
		p.PerPath = per
	}
	return p, nil
}

// FloorShrink reports by how much d can at most lower any selection's
// area — the sum of per-IP area decreases, each counted once since an
// IP's area is charged once per selection — and whether a previously
// proven optimal area survives the edit as a lower bound at all. It
// does not: a gain increase can enlarge the feasible set, so the old
// optimum proves nothing and ok is false. Gain decreases and area
// edits only shrink the feasible set or shift the area function, so
// prevOptimalArea − shrink stays a proven floor (the caller must also
// check that the edit does not loosen any path requirement). The
// receiver must be the pre-edit analysis the previous optimum was
// proven over.
func (a *Analysis) FloorShrink(d Delta) (shrink float64, ok bool) {
	idx := make(map[string]int, len(a.db.IMPs))
	for i, im := range a.db.IMPs {
		idx[im.ID] = i
	}
	for id, g := range d.IMPGain {
		if i, found := idx[id]; found && g > a.gainPerExec[i] {
			return 0, false
		}
	}
	for _, id := range a.ipIDs {
		if area, found := d.IPArea[id]; found && area < a.ipArea[id] {
			shrink += a.ipArea[id] - area
		}
	}
	return shrink, true
}

// Evaluate re-prices a previous selection's chosen set under this —
// possibly edited — analysis and problem: the answer the designer
// already had, with fresh areas, gains, and per-path numbers. It is
// the zero-latency engine of an incremental re-solve: when the old
// choice is still feasible after the edit, the racing portfolio can
// offer it instantly and judge it against the carried-over bound while
// the exact engines are still loading. Returns nil when the selection
// is not from this DB or the edit broke its feasibility (requirement
// no longer met, conflict introduced, duplicate s-call). The result is
// Feasible, never Optimal: re-pricing proves nothing about optimality.
func (a *Analysis) Evaluate(p Problem, sel *Selection) *Selection {
	if p.DB == nil {
		p.DB = a.db
	}
	if p.DB != a.db || sel == nil || len(sel.Chosen) == 0 {
		return nil
	}
	in := &instance{Analysis: a, p: p}
	idx := make(map[string]int, len(a.db.IMPs))
	for i, im := range a.db.IMPs {
		idx[im.ID] = i
	}
	chosen := make([]int, 0, len(sel.Chosen))
	taken := make(map[*imp.SCall]bool, len(sel.Chosen))
	picked := make(map[int]bool, len(sel.Chosen))
	for _, im := range sel.Chosen {
		i, ok := idx[im.ID]
		if !ok || taken[a.db.IMPs[i].SC] {
			return nil
		}
		taken[a.db.IMPs[i].SC] = true
		picked[i] = true
		chosen = append(chosen, i)
	}
	for _, c := range a.db.Conflicts {
		if picked[c[0]] && picked[c[1]] {
			return nil
		}
	}
	for k := range a.db.Paths {
		rg := in.required(k)
		if rg <= 0 {
			continue
		}
		for _, i := range chosen {
			rg -= in.pathCoef(k, i)
		}
		if rg > 0 {
			return nil
		}
	}
	sort.Ints(chosen)
	out := in.compose(chosen, 0)
	out.Status = ilp.Feasible
	return out
}

// LPRound is LP relaxation + rounding over the shared analysis: one
// simplex solve of the area pass, snapped to the nearest integers
// (ilp.SolveLPRound). It returns the selection together with the LP
// lower bound on the optimal area. The racing portfolio no longer runs
// it (the exact engine's bound stream carries the same bound); the
// benchmark times it as its root-LP cost.
//
// Outcomes: an infeasible relaxation proves the instance Infeasible
// (bound +Inf, vacuous); a rounded point comes back Feasible with its
// area gap versus the LP bound (the area may in fact be optimal, but
// the lexicographic tie-break pass never ran, so the result is never
// labeled Optimal); when neither rounding nor repairLP finds a point,
// there is no answer and the error wraps ilp.ErrNoRounding — but the
// returned bound is still the proven LP bound. Every returned selection
// carries the one cold LP with its pivots and bound flips in Search.
// The seed argument is ignored; it stays so existing callers compile.
func (a *Analysis) LPRound(ctx context.Context, p Problem, seed *Selection) (*Selection, float64, error) {
	if p.DB == nil {
		p.DB = a.db
	}
	if p.DB != a.db {
		return nil, math.Inf(-1), fmt.Errorf("selector: problem DB does not match the analysis DB")
	}
	if len(a.db.IMPs) == 0 {
		return &Selection{Status: ilp.Infeasible}, math.Inf(1), nil
	}
	in := &instance{Analysis: a, p: p}
	ifaceObj := func(i int) float64 {
		if p.DisableMerging {
			return p.DB.IMPs[i].IfaceArea
		}
		return 0
	}
	h := in.build(ifaceObj, func(area float64) float64 { return area }, 0, 1)
	s, err := h.m.SolveLPRound(ctx, p.Budget)
	if err != nil {
		var be *ilp.BoundError
		if errors.As(err, &be) {
			if sel := in.repairLP(h, be.X); sel != nil {
				sel.Gap = relAreaGap(sel.Area, be.Bound)
				sel.Search = be.Stats
				return sel, be.Bound, nil
			}
			return nil, be.Bound, err
		}
		return nil, math.Inf(-1), err
	}
	switch s.Status {
	case ilp.Infeasible:
		return &Selection{Status: ilp.Infeasible, Nodes: s.Nodes, Search: s.Stats}, math.Inf(1), nil
	case ilp.Unbounded:
		// Defensive: the area objective is non-negative, so the
		// relaxation cannot be unbounded in practice.
		return &Selection{Status: ilp.Unbounded, Nodes: s.Nodes, Search: s.Stats}, math.Inf(-1), nil
	}
	bound := s.Bound
	sel := in.decode(h, s, s.Nodes)
	sel.Status = ilp.Feasible
	sel.Gap = relAreaGap(sel.Area, bound)
	sel.Search = s.Stats
	return sel, bound, nil
}

// relAreaGap is the relative area gap against a lower bound, +Inf when
// the bound is not finite.
func relAreaGap(area, bound float64) float64 {
	if math.IsInf(bound, 0) || math.IsNaN(bound) {
		return math.Inf(1)
	}
	return math.Abs(area-bound) / math.Max(1, area)
}

// repairLP turns a fractional relaxation optimum the generic
// nearest-integer snap could not fix into a feasible selection, using
// what the ILP layer cannot know — the problem structure. Methods are
// taken greedily in descending fractional weight (the LP's own
// preference order) subject to one-method-per-s-call and the SC-PC
// conflict pairs, until every path requirement is met; a reverse sweep
// then drops any method the cover does not need. Because the LP
// optimum concentrates weight on the methods cheap shared-area covers
// are made of, the repaired area usually lands within a few percent of
// the LP bound. Returns nil when even the full candidate set cannot
// meet the requirements (the caller keeps the bound regardless). Its
// one caller is LPRound, which the portfolio no longer races.
func (in *instance) repairLP(h handles, xfrac []float64) *Selection {
	db := in.db
	need := make([]int64, len(db.Paths))
	unmet := 0
	for k := range db.Paths {
		if rg := in.required(k); rg > 0 {
			need[k] = rg
			unmet++
		}
	}
	order := make([]int, len(db.IMPs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		wa, wb := xfrac[h.xs[order[a]]], xfrac[h.xs[order[b]]]
		if wa != wb {
			return wa > wb
		}
		return in.totalGain[order[a]] > in.totalGain[order[b]]
	})
	conflict := map[int][]int{}
	for _, c := range db.Conflicts {
		conflict[c[0]] = append(conflict[c[0]], c[1])
		conflict[c[1]] = append(conflict[c[1]], c[0])
	}
	taken := map[*imp.SCall]bool{}
	chosen := map[int]bool{}
	var picks []int
	for _, i := range order {
		if unmet == 0 {
			break
		}
		if taken[db.IMPs[i].SC] {
			continue
		}
		blocked := false
		for _, j := range conflict[i] {
			if chosen[j] {
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		helps := false
		for k := range need {
			if need[k] > 0 && in.pathCoef(k, i) > 0 {
				helps = true
				break
			}
		}
		if !helps {
			continue
		}
		taken[db.IMPs[i].SC] = true
		chosen[i] = true
		picks = append(picks, i)
		for k := range need {
			if in.required(k) <= 0 {
				continue
			}
			before := need[k]
			need[k] -= in.pathCoef(k, i)
			if before > 0 && need[k] <= 0 {
				unmet--
			}
		}
	}
	if unmet > 0 {
		return nil
	}
	// Reverse sweep: drop picks the cover no longer needs (lowest LP
	// weight first — picks is already in descending-weight order).
	for p := len(picks) - 1; p >= 0; p-- {
		i := picks[p]
		removable := true
		for k := range need {
			if rg := in.required(k); rg > 0 && need[k]+in.pathCoef(k, i) > 0 {
				removable = false
				break
			}
		}
		if removable {
			for k := range need {
				if in.required(k) > 0 {
					need[k] += in.pathCoef(k, i)
				}
			}
			chosen[i] = false
			picks = append(picks[:p], picks[p+1:]...)
		}
	}
	values := make([]float64, len(xfrac))
	for _, i := range picks {
		values[h.xs[i]] = 1
	}
	sel := in.decode(h, &ilp.Solution{Values: values}, 1)
	sel.Status = ilp.Feasible
	return sel
}
