package selector

import (
	"math"
	"sort"

	"partita/internal/ilp"
)

// CapacityWitness returns an instant combinatorial lower bound on the
// optimal area and, when it can, a candidate selection built from the
// bound's witness.
//
// The bound: for each path k it solves, exactly, the IP-level covering
// knapsack
//
//	min Σ_j area_j·z_j   s.t.   Σ_j G_jk·z_j ≥ required(k),  z binary
//
// where G_jk is the most gain path k can draw from IP j (ipGainCapacity)
// and area_j charges the IP's silicon plus its cheapest interface (any
// selection using IP j picks at least one of its methods, whose merged
// S-instruction area is at least the method's own interface area) — a
// relaxation of the selection ILP that keeps only the fixed charges and
// the aggregate gain capacities, dropping per-method interface excess,
// method conflicts, and cross-path coupling. Every feasible selection
// induces a feasible z, so each path's knapsack optimum bounds the true
// optimal area from below, and the best path's bound is returned.
//
// Each path's DP keeps its rows as step lists (capacityDP), so it costs
// microseconds and a few kilobytes whatever the requirement — no LP, no
// search — which is what makes it useful to the racing portfolio: the
// acceptability judge holds an often-tight proven bound before any
// engine has solved a relaxation. +Inf means some path cannot reach its
// requirement at all (the ILP is infeasible); 0 means no path demands
// gain and the bound is vacuous.
//
// The candidate: the knapsack optimum's IP subset on the binding path,
// instantiated with each s-call's best method among those IPs (under
// the SC-PC conflict pairs) and re-priced exactly. When that selection
// meets every path's requirement it is returned Feasible — often at the
// optimal area, since the enriched knapsack is tight on the paper's
// models — and a racing portfolio can deliver it against the bound
// microseconds into the race. The witness is nil whenever the
// instantiation falls short on some path (the bound always stands on
// its own).
func (a *Analysis) CapacityWitness(p Problem) (float64, *Selection) {
	if p.DB == nil {
		p.DB = a.db
	}
	if p.DB != a.db || len(a.db.IMPs) == 0 {
		return 0, nil
	}
	in := &instance{Analysis: a, p: p}
	minIface := a.minIfaceAreas()
	bound := 0.0
	bindK := -1
	var bindCap map[string]int64
	for k := range a.db.Paths {
		rg := in.required(k)
		if rg <= 0 {
			continue
		}
		capacity := in.ipGainCapacity(k)
		if b := capacityDP(in, capacity, minIface, rg, nil); b > bound {
			bound = b
			bindK, bindCap = k, capacity
		}
	}
	if bindK < 0 || math.IsInf(bound, 0) {
		return bound, nil
	}
	// Re-run the binding path's DP keeping the chosen IP subset, then
	// instantiate and re-price it.
	witness := map[string]bool{}
	capacityDP(in, bindCap, minIface, in.required(bindK), witness)
	return bound, in.instantiate(bindK, witness)
}

// ipGainCapacity is pathCapacity keyed by IP ID, holding only the IPs
// that can contribute to path k.
func (in *instance) ipGainCapacity(k int) map[string]int64 {
	dense := make([]int64, len(in.ipIDs))
	in.pathCapacity(k, dense)
	capacity := make(map[string]int64, len(dense))
	for j, g := range dense {
		if g > 0 {
			capacity[in.ipIDs[j]] = g
		}
	}
	return capacity
}

// minIfaceAreas maps each IP to its cheapest method's interface area,
// the least interface charge any selection using the IP pays.
func (a *Analysis) minIfaceAreas() map[string]float64 {
	minIface := map[string]float64{}
	for _, im := range a.db.IMPs {
		if prev, ok := minIface[im.IP.ID]; !ok || im.IfaceArea < prev {
			minIface[im.IP.ID] = im.IfaceArea
		}
	}
	return minIface
}

// capStep is one step of a covering-knapsack row: the least area, over
// the subsets of the IPs added so far, that reaches gain.
type capStep struct {
	gain int64
	area float64
}

// capacityDP solves one path's covering knapsack and returns its optimal
// area, +Inf when rg is out of reach. With a non-nil witness map it also
// backtracks the optimal IP subset into it.
//
// Row i maps each gain g in [0, rg] to the least area of a subset of the
// first i IPs whose capacities reach g. A row never decreases in g, so
// it is kept as its steps: (gain, area) pairs with both strictly
// increasing and gains capped at rg, the row's value at g being the area
// of the first step whose gain is at least g (stepArea). Adding IP j
// merges the row with its shift {(min(g+G_jk, rg), a+area_j)} and drops
// every step that another step hides (Nemhauser and Ullmann, Management
// Science 15(9), 1969). A row holds at most min(2^i, rg+1) steps; on the
// paper's three tables none holds more than 19, where a dense table
// holds rg+1 floats per IP. Each area is the same sum of IP areas,
// added in ipIDs order, that the dense recurrence dp[g] = min(dp[g],
// dp[max(g-G_jk, 0)] + area_j) forms, so bound and witness come out
// bit-identical to it.
func capacityDP(in *instance, capacity map[string]int64, minIface map[string]float64, rg int64, witness map[string]bool) float64 {
	row := []capStep{{0, 0}}
	var items []string
	var rows [][]capStep
	for _, id := range in.ipIDs {
		gj := capacity[id]
		if gj <= 0 {
			continue
		}
		if witness != nil {
			rows = append(rows, row)
			items = append(items, id)
		}
		row = addItem(row, gj, in.ipArea[id]+minIface[id], rg)
	}
	bound := stepArea(row, rg)
	if witness != nil {
		g := rg
		for i := len(items) - 1; i >= 0 && g > 0; i-- {
			// An IP whose row leaves the value at g unchanged is unused;
			// its predecessor row decides the rest.
			if stepArea(row, g) != stepArea(rows[i], g) {
				witness[items[i]] = true
				if g -= capacity[items[i]]; g < 0 {
					g = 0
				}
			}
			row = rows[i]
		}
	}
	return bound
}

// addItem returns the row that adding an IP of capacity gj and area aj
// makes of row: row merged in gain order with its shift by (gj, aj).
func addItem(row []capStep, gj int64, aj float64, rg int64) []capStep {
	next := make([]capStep, 0, 2*len(row))
	i, j := 0, 0
	for i < len(row) || j < len(row) {
		var s capStep
		if j < len(row) {
			s = capStep{min(row[j].gain+gj, rg), row[j].area + aj}
		}
		if j == len(row) || (i < len(row) && row[i].gain <= s.gain) {
			s = row[i]
			i++
		} else {
			j++
		}
		// Drop the steps s hides (no more gain, no less area), then s
		// itself if the last step kept hides it.
		for len(next) > 0 && next[len(next)-1].area >= s.area {
			next = next[:len(next)-1]
		}
		if len(next) == 0 || next[len(next)-1].gain < s.gain {
			next = append(next, s)
		}
	}
	return next
}

// stepArea is a row's value at gain g: the area of its first step whose
// gain is at least g, +Inf when no step reaches g.
func stepArea(row []capStep, g int64) float64 {
	i := sort.Search(len(row), func(i int) bool { return row[i].gain >= g })
	if i == len(row) {
		return math.Inf(1)
	}
	return row[i].area
}

// instantiate turns a witness IP subset into a concrete selection: per
// s-call, the best method on path k among the witness IPs (ties to the
// smaller interface area), with SC-PC conflicts resolved by dropping
// the lesser contributor. Returns the re-priced selection when it meets
// every path's requirement, nil otherwise.
func (in *instance) instantiate(k int, witness map[string]bool) *Selection {
	db := in.db
	// bestFor[s] is s-call s's best method, -1 while it has none.
	bestFor := make([]int, len(db.SCalls))
	for s := range bestFor {
		bestFor[s] = -1
	}
	for i, im := range db.IMPs {
		if !witness[im.IP.ID] || in.pathCoef(k, i) <= 0 {
			continue
		}
		s := in.scOf[i]
		j := bestFor[s]
		if j < 0 || in.pathCoef(k, i) > in.pathCoef(k, j) ||
			(in.pathCoef(k, i) == in.pathCoef(k, j) && im.IfaceArea < db.IMPs[j].IfaceArea) {
			bestFor[s] = i
		}
	}
	picked := make([]bool, len(db.IMPs))
	for _, i := range bestFor {
		if i >= 0 {
			picked[i] = true
		}
	}
	for _, c := range db.Conflicts {
		if picked[c[0]] && picked[c[1]] {
			drop := c[0]
			if in.pathCoef(k, c[0]) > in.pathCoef(k, c[1]) {
				drop = c[1]
			}
			picked[drop] = false
		}
	}
	var chosen []int
	for i := range db.IMPs {
		if picked[i] {
			chosen = append(chosen, i)
		}
	}
	for kk := range db.Paths {
		rg := in.required(kk)
		if rg <= 0 {
			continue
		}
		for _, i := range chosen {
			rg -= in.pathCoef(kk, i)
		}
		if rg > 0 {
			return nil
		}
	}
	sel := in.compose(chosen, 0)
	sel.Status = ilp.Feasible
	return sel
}
