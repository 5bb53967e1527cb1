package selector

import (
	"sort"

	"partita/internal/ilp"
	"partita/internal/imp"
)

// GreedyBaseline models the prior state of the art the paper compares
// against (Alomary et al., ICCAD'93-style module selection): hardware
// accelerators are chosen greedily by gain/area ratio, without
// considering interface methods (each (s-call, IP) pair uses its single
// cheapest feasible interface) and without parallel execution (no
// parallel-code methods). It returns a Selection in the same shape as
// Solve so the two can be benchmarked head to head.
func GreedyBaseline(p Problem) *Selection {
	return greedyBound(newInstance(p))
}

// greedyBound is GreedyBaseline over an already bound instance, so
// pipeline and degradation callers reuse the shared Analysis instead of
// re-deriving it.
func greedyBound(in *instance) *Selection {
	db := in.db

	// Restrict to non-PC methods and, per (SC, IP), the cheapest
	// feasible interface.
	type key struct {
		sc *imp.SCall
		ip string
	}
	cheapest := map[key]int{}
	for i, m := range db.IMPs {
		if m.UsesPC {
			continue
		}
		k := key{m.SC, m.IP.ID}
		if j, ok := cheapest[k]; !ok || less(db.IMPs[i], db.IMPs[j]) {
			cheapest[k] = i
		}
	}
	var candIdx []int
	for _, i := range cheapest {
		candIdx = append(candIdx, i)
	}
	sort.Ints(candIdx)

	chosen := map[*imp.SCall]int{}
	usedIP := map[string]bool{}
	usedGrp := map[group]bool{}

	pathGain := make([]int64, len(db.Paths))
	met := func() bool {
		for k := range db.Paths {
			if pathGain[k] < in.required(k) {
				return false
			}
		}
		return true
	}

	for !met() {
		bestIdx := -1
		var bestRatio float64
		for _, i := range candIdx {
			m := db.IMPs[i]
			if _, taken := chosen[m.SC]; taken {
				continue
			}
			// Marginal gain: only count paths still short of target.
			var mg int64
			for k := range db.Paths {
				if pathGain[k] >= in.required(k) {
					continue
				}
				mg += in.pathCoef(k, i)
			}
			if mg <= 0 {
				continue
			}
			// Marginal area: IP counted once, group interface once.
			da := 0.0
			if !usedIP[m.IP.ID] {
				da += in.ipArea[m.IP.ID]
			}
			g := in.grpOf[i]
			if !usedGrp[g] {
				da += in.grpArea[g]
			}
			if da <= 0 {
				da = 1e-9
			}
			ratio := float64(mg) / da
			if bestIdx < 0 || ratio > bestRatio {
				bestIdx, bestRatio = i, ratio
			}
		}
		if bestIdx < 0 {
			return &Selection{Status: ilp.Infeasible}
		}
		m := db.IMPs[bestIdx]
		chosen[m.SC] = bestIdx
		usedIP[m.IP.ID] = true
		usedGrp[in.grpOf[bestIdx]] = true
		for k := range db.Paths {
			pathGain[k] += in.pathCoef(k, bestIdx)
		}
	}

	sel := &Selection{Status: ilp.Optimal, PathGains: pathGain}
	var idxs []int
	for _, i := range chosen {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		m := db.IMPs[i]
		sel.Chosen = append(sel.Chosen, m)
		sel.Gain += in.totalGain[i]
		sel.SCallsImplemented += len(m.SC.Sites)
	}
	for _, id := range in.ipIDs {
		if usedIP[id] {
			sel.Area += in.ipArea[id]
		}
	}
	for _, g := range in.groups {
		if usedGrp[g] {
			sel.Area += in.grpArea[g]
		}
	}
	sel.SInstructions = len(usedGrp)
	return sel
}

// less orders methods by (area, then worse gain last) for the cheapest-
// interface filter: prefer the smaller interface area; on ties, the one
// with more gain.
func less(a, b *imp.IMP) bool {
	if a.IfaceArea != b.IfaceArea {
		return a.IfaceArea < b.IfaceArea
	}
	return a.GainPerExec > b.GainPerExec
}
