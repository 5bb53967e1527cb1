package selector

// Incremental re-solve support: a Delta describes the single-field edits
// an interactive design loop makes (tweak one IP's area, one method's
// gain, one path's required gain), and Analysis.Apply turns the shared
// immutable Analysis into a derived one with only the affected entries
// rewritten. Everything untouched — the group structure, interface
// areas, the per-path frequency matrix, and every coefficient row when
// no gain changed — is shared with the parent analysis by reference, so
// an edit solve re-derives nothing from the CDFG.

import (
	"context"
	"fmt"
	"math"
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

// Deprecated: LPRound's one caller is bench/solves.go's rootLPMs,
// which times it as the benchmark's root-LP cost; it goes when that
// timer does. It builds the area pass's model and solves only its LP
// relaxation (ilp.Model.SolveRelaxation), and returns no selection, the
// LP lower bound on the optimal area (+Inf when the relaxation is
// infeasible) and the solve's error. The seed argument is ignored.
func (a *Analysis) LPRound(ctx context.Context, p Problem, seed *Selection) (*Selection, float64, error) {
	if p.DB == nil {
		p.DB = a.db
	}
	if p.DB != a.db {
		return nil, math.Inf(-1), fmt.Errorf("selector: problem DB does not match the analysis DB")
	}
	if len(a.db.IMPs) == 0 {
		return nil, math.Inf(1), nil
	}
	in := &instance{Analysis: a, p: p}
	ifaceObj := func(i int) float64 {
		if p.DisableMerging {
			return p.DB.IMPs[i].IfaceArea
		}
		return 0
	}
	h := in.build(ifaceObj, func(area float64) float64 { return area }, 0, 1)
	s, err := h.m.SolveRelaxation(ctx, p.Budget)
	if err != nil {
		return nil, math.Inf(-1), err
	}
	return nil, s.Bound, nil
}
