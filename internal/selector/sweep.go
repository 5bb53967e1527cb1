package selector

import (
	"sort"

	"partita/internal/cdfg"
	"partita/internal/ilp"
	"partita/internal/imp"
)

// SweepPoint is one solved point of a design-space sweep.
type SweepPoint struct {
	Required int64
	Sel      *Selection
}

// MaxReachableGain sums the best total gain of every s-call — the upper
// bound any selection can achieve (ignoring conflicts, so it may
// slightly overestimate under Problem 2).
func MaxReachableGain(db *imp.DB) int64 {
	best := map[*imp.SCall]int64{}
	for _, m := range db.IMPs {
		if m.TotalGain > best[m.SC] {
			best[m.SC] = m.TotalGain
		}
	}
	var total int64
	for _, g := range best {
		total += g
	}
	return total
}

// MaxReachablePerPath computes, for each execution path, the largest
// gain any selection can deliver *on that path*: the sum over the
// path's s-calls of their best site-weighted method. The minimum across
// paths bounds the requirement that can be applied uniformly (ignoring
// conflicts, which can only lower it).
func MaxReachablePerPath(db *imp.DB) []int64 {
	bestPerExec := map[*imp.SCall]int64{}
	for _, m := range db.IMPs {
		if m.GainPerExec > bestPerExec[m.SC] {
			bestPerExec[m.SC] = m.GainPerExec
		}
	}
	siteOwner := map[*cdfg.Node]*imp.SCall{}
	for _, sc := range db.SCalls {
		for _, s := range sc.Sites {
			siteOwner[s] = sc
		}
	}
	out := make([]int64, len(db.Paths))
	for k, calls := range db.Paths {
		for _, c := range calls {
			if sc := siteOwner[c]; sc != nil {
				out[k] += c.Freq * bestPerExec[sc]
			}
		}
	}
	return out
}

// ParetoFront filters sweep points down to the non-dominated (gain up,
// area down) frontier, keeping only optimal points.
func ParetoFront(points []SweepPoint) []SweepPoint {
	var feasible []SweepPoint
	for _, p := range points {
		if p.Sel.Status == ilp.Optimal {
			feasible = append(feasible, p)
		}
	}
	sort.Slice(feasible, func(i, j int) bool {
		if feasible[i].Sel.Area != feasible[j].Sel.Area {
			return feasible[i].Sel.Area < feasible[j].Sel.Area
		}
		return feasible[i].Sel.Gain > feasible[j].Sel.Gain
	})
	var front []SweepPoint
	var bestGain int64 = -1
	for _, p := range feasible {
		if p.Sel.Gain > bestGain {
			front = append(front, p)
			bestGain = p.Sel.Gain
		}
	}
	return front
}
