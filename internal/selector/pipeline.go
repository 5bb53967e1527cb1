package selector

// The sweep pipeline: a one-shot immutable Analysis artifact holding
// everything about a selection problem that does not depend on the
// required-gain point, plus a lazy Pipeline iterator that solves a
// sequence of points over the shared artifact. Two properties of the
// 0-1 ILP make the pipeline much cheaper than independent solves:
//
//   - Plateau reuse. The optimal area A*(rg) is non-decreasing in rg,
//     and the sweep curve is a step function: many consecutive points
//     share one optimal selection. If the selection solved at a looser
//     requirement rg_d already achieves every path's gain at a tighter
//     requirement rg >= rg_d, it is feasible at rg with area
//     A*(rg_d) <= A*(rg), hence provably optimal at rg — and because it
//     minimizes the tie-break objective over the rg_d feasible set, a
//     superset of the rg one it belongs to, it is lexicographically
//     optimal there too. Such points complete with zero solver work.
//
//   - Infeasibility propagation. Feasible sets shrink as rg grows, so
//     one point proven infeasible makes every tighter point infeasible
//     without another search.
//
// A point that must be solved runs the same cold solve as Solve.
//
// Points run strictly in ascending order, so which points are solved,
// reused, or propagated is deterministic.
//
// Sweep, SweepCtx, and SweepCtxObserve are thin adapters over this
// pipeline; the service's batch executor drives Pipeline.Next directly
// to stream per-point results with per-point deadlines.

import (
	"context"
	"fmt"
	"math"
	"sort"

	"partita/internal/budget"
	"partita/internal/cdfg"
	"partita/internal/ilp"
	"partita/internal/imp"
)

// Analysis is the immutable, point-independent half of a selection
// solve: implementation groups, per-IP areas, and the per-path gain
// coefficient of every implementation method. It is built once per DB
// (Analyze once) and shared by any number of concurrent solves and
// sweep points (select many); nothing in it is mutated after
// NewAnalysis returns.
type Analysis struct {
	db *imp.DB
	// groups are the implementation groups in groupLess order; grpArea
	// is each one's largest member interface area.
	groups  []group
	grpArea []float64
	ipIDs   []string
	ipArea  map[string]float64
	// ipOf, scOf and grp index each IMP's IP in ipIDs, its s-call in
	// DB.SCalls (every DB lists the s-call of each of its methods) and
	// its group in groups, so a model is built from index arrays rather
	// than string keys.
	ipOf, scOf, grp []int
	// ipSC lists the methods of every (IP, s-call) pair that has any,
	// pairs in ipIDs then s-call order, methods in IMP order.
	ipSC [][]int
	// coef[k][m] is the gain coefficient of IMP m on path k: the
	// site-frequency-weighted gain the method contributes to that path.
	coef [][]int64
	// freq[k][m] is the execution frequency of IMP m's sites on path k,
	// so coef[k][m] = freq[k][m] · gainPerExec[m]. Kept so Apply can
	// recompute coefficients for edited gains without re-walking the CDFG.
	freq [][]int64
	// gainPerExec and totalGain mirror the DB's per-IMP gains; a Delta
	// edit produces a derived Analysis with these (and coef) rewritten,
	// which is why every solver path reads gains through the Analysis
	// rather than the DB.
	gainPerExec []int64
	totalGain   []int64
	maxGain     int64
}

// NewAnalysis precomputes the shared artifact for db. The db must not
// be mutated afterwards (the same contract Design documents).
func NewAnalysis(db *imp.DB) *Analysis {
	a := &Analysis{db: db, ipArea: map[string]float64{}}
	siteOn := make([]map[*cdfg.Node]bool, len(db.Paths))
	for k, calls := range db.Paths {
		siteOn[k] = map[*cdfg.Node]bool{}
		for _, c := range calls {
			siteOn[k][c] = true
		}
	}
	// grpAt and ipAt end up mapping each group and IP to its index in
	// the sorted groups and ipIDs.
	grpAt := map[group]int{}
	for _, im := range db.IMPs {
		g := group{im.IP.ID, im.Cand.Type, im.Flattened}
		if _, ok := grpAt[g]; !ok {
			grpAt[g] = len(a.groups)
			a.groups = append(a.groups, g)
		}
		if _, ok := a.ipArea[im.IP.ID]; !ok {
			a.ipIDs = append(a.ipIDs, im.IP.ID)
			a.ipArea[im.IP.ID] = im.IP.Area
		}
	}
	sort.Slice(a.groups, func(x, y int) bool { return groupLess(a.groups[x], a.groups[y]) })
	sort.Strings(a.ipIDs)
	for gi, g := range a.groups {
		grpAt[g] = gi
	}
	ipAt := make(map[string]int, len(a.ipIDs))
	for j, id := range a.ipIDs {
		ipAt[id] = j
	}
	scAt := make(map[*imp.SCall]int, len(db.SCalls))
	for s, sc := range db.SCalls {
		scAt[sc] = s
	}
	n := len(db.IMPs)
	idx := make([]int, 3*n)
	a.ipOf, a.scOf, a.grp = idx[:n:n], idx[n:2*n:2*n], idx[2*n:]
	a.grpArea = make([]float64, len(a.groups))
	for i, im := range db.IMPs {
		g := grpAt[group{im.IP.ID, im.Cand.Type, im.Flattened}]
		a.ipOf[i], a.scOf[i], a.grp[i] = ipAt[im.IP.ID], scAt[im.SC], g
		if im.IfaceArea > a.grpArea[g] {
			a.grpArea[g] = im.IfaceArea
		}
	}
	a.ipSC = pairRuns(a.ipOf, a.scOf, len(a.ipIDs), len(db.SCalls))
	a.gainPerExec = make([]int64, len(db.IMPs))
	a.totalGain = make([]int64, len(db.IMPs))
	for i, im := range db.IMPs {
		a.gainPerExec[i] = im.GainPerExec
		a.totalGain[i] = im.TotalGain
	}
	a.coef = make([][]int64, len(db.Paths))
	a.freq = make([][]int64, len(db.Paths))
	for k := range db.Paths {
		a.coef[k] = make([]int64, len(db.IMPs))
		a.freq[k] = make([]int64, len(db.IMPs))
		for m, im := range db.IMPs {
			var f int64
			for _, site := range im.SC.Sites {
				if siteOn[k][site] {
					f += site.Freq
				}
			}
			a.freq[k][m] = f
			a.coef[k][m] = f * im.GainPerExec
		}
	}
	a.maxGain = a.maxGainOf(a.totalGain)
	return a
}

// pairRuns lists the methods of every (IP, s-call) pair that has any,
// pairs in IP then s-call order, methods in IMP order: a counting sort
// of the methods by pair.
func pairRuns(ipOf, scOf []int, nIP, nSC int) [][]int {
	end := make([]int, nIP*nSC+1)
	for i := range ipOf {
		end[ipOf[i]*nSC+scOf[i]+1]++
	}
	pairs := 0
	for p := 1; p < len(end); p++ {
		if end[p] > 0 {
			pairs++
		}
		end[p] += end[p-1]
	}
	// end[p] starts as pair p's first slot and ends one past its last.
	end = end[:nIP*nSC]
	byPair := make([]int, len(ipOf))
	for i := range ipOf {
		p := ipOf[i]*nSC + scOf[i]
		byPair[end[p]] = i
		end[p]++
	}
	runs := make([][]int, 0, pairs)
	lo := 0
	for _, hi := range end {
		if hi > lo {
			runs = append(runs, byPair[lo:hi:hi])
		}
		lo = hi
	}
	return runs
}

// maxGainOf is MaxReachableGain over the methods' total gains tot: the
// best total gain of every s-call, summed.
func (a *Analysis) maxGainOf(tot []int64) int64 {
	best := make([]int64, len(a.db.SCalls))
	for i, g := range tot {
		best[a.scOf[i]] = max(best[a.scOf[i]], g)
	}
	var total int64
	for _, g := range best {
		total += g
	}
	return total
}

// DB returns the analyzed database.
func (a *Analysis) DB() *imp.DB { return a.db }

// MaxGain is MaxReachableGain of the analyzed DB, precomputed.
func (a *Analysis) MaxGain() int64 { return a.maxGain }

// pathCoef is the gain coefficient of IMP m on path k.
func (a *Analysis) pathCoef(k, m int) int64 { return a.coef[k][m] }

// Solve runs the lexicographic optimization of SolveCtx over the shared
// analysis. p.DB may be left nil (it defaults to the analyzed DB); a
// non-nil p.DB must be the analyzed DB itself.
func (a *Analysis) Solve(ctx context.Context, p Problem) (*Selection, error) {
	if p.DB == nil {
		p.DB = a.db
	}
	if p.DB != a.db {
		return nil, fmt.Errorf("selector: problem DB does not match the analysis DB")
	}
	if len(a.db.IMPs) == 0 {
		return &Selection{Status: ilp.Infeasible}, nil
	}
	return solveBound(ctx, &instance{Analysis: a, p: p})
}

// Greedy runs the GreedyBaseline heuristic over the shared analysis.
func (a *Analysis) Greedy(p Problem) *Selection {
	if p.DB == nil {
		p.DB = a.db
	}
	return greedyBound(&instance{Analysis: a, p: p})
}

// meetsUniform reports whether sel achieves at least rg on every
// execution path — i.e. whether it is feasible at the uniform
// requirement rg.
func meetsUniform(sel *Selection, rg int64) bool {
	if rg <= 0 {
		return true
	}
	for _, g := range sel.PathGains {
		if g < rg {
			return false
		}
	}
	return true
}

// Point is one lazily produced result of a sweep Pipeline.
type Point struct {
	// Index is the point's position in the pipeline's gains slice.
	Index int
	// Required is the point's uniform required gain.
	Required int64
	Sel      *Selection
	// Reused marks a point completed without any solver search: its
	// selection was proven equal to a looser point's (plateau reuse) or
	// its infeasibility followed from a looser infeasible point.
	Reused bool
}

// PipelineStats counts how the pipeline disposed of its points.
type PipelineStats struct {
	// Solved points ran the exact solver.
	Solved int
	// Reused points completed with zero solver work (plateau reuse or
	// propagated infeasibility).
	Reused int
	// GreedySeeds always reads 0: solved points start cold.
	//
	// Deprecated: the pipeline seeds no search.
	GreedySeeds int
}

// Pipeline lazily solves a sequence of uniform required-gain points
// over one shared Analysis. Points are produced in the order of gains;
// ascending order maximizes plateau reuse and infeasibility
// propagation (both remain sound, merely less effective, out of
// order). A Pipeline is not safe for concurrent use; build one per
// consumer.
type Pipeline struct {
	an      *Analysis
	gains   []int64
	bud     budget.Budget
	observe func(point int, inc Incumbent)

	cursor   int
	donor    *Selection // last proven-optimal solve
	donorRG  int64
	infeasAt int64 // lowest rg proven infeasible
	stats    PipelineStats
}

// NewPipeline builds a lazy iterator over the given required gains.
// bud applies per point; observe, when non-nil, receives every
// incumbent of every solved point, tagged with the point index. The
// gains slice is retained, not copied.
func (a *Analysis) NewPipeline(gains []int64, bud budget.Budget, observe func(int, Incumbent)) *Pipeline {
	return &Pipeline{an: a, gains: gains, bud: bud, observe: observe, infeasAt: math.MaxInt64}
}

// Len reports the total number of points.
func (pl *Pipeline) Len() int { return len(pl.gains) }

// Stats reports the dispositions of the points produced so far.
func (pl *Pipeline) Stats() PipelineStats { return pl.stats }

// Next produces the next point, solving it only if its answer does not
// already follow from an earlier one. ok is false when the pipeline is
// exhausted. On error the point's Index/Required are still valid and
// the cursor has advanced, so a caller may keep iterating (per-point
// deadlines: pass a fresh ctx per call).
func (pl *Pipeline) Next(ctx context.Context) (pt Point, ok bool, err error) {
	if pl.cursor >= len(pl.gains) {
		return Point{}, false, nil
	}
	i := pl.cursor
	pl.cursor++
	rg := pl.gains[i]

	// Plateau reuse: the donor selection is optimal at its own (looser)
	// requirement; if it is feasible here it is optimal here too.
	if pl.donor != nil && rg >= pl.donorRG && meetsUniform(pl.donor, rg) {
		pl.stats.Reused++
		cp := *pl.donor
		cp.Nodes, cp.Search, cp.Passes = 0, ilp.SearchStats{}, [2]ilp.SearchStats{} // no search happened for this point
		return Point{Index: i, Required: rg, Sel: &cp, Reused: true}, true, nil
	}
	// Infeasibility propagation: feasible sets shrink as rg grows.
	if rg >= pl.infeasAt {
		pl.stats.Reused++
		return Point{Index: i, Required: rg, Sel: &Selection{Status: ilp.Infeasible}, Reused: true}, true, nil
	}

	p := Problem{DB: pl.an.db, Required: rg, Budget: pl.bud}
	if pl.observe != nil {
		obs, idx := pl.observe, i
		p.OnIncumbent = func(inc Incumbent) { obs(idx, inc) }
	}
	sel, err := pl.an.Solve(ctx, p)
	if err != nil {
		return Point{Index: i, Required: rg}, true, err
	}
	pl.stats.Solved++
	pl.record(rg, sel)
	return Point{Index: i, Required: rg, Sel: sel}, true, nil
}

// record keeps proven results as reuse sources. Anytime (Feasible) and
// degraded results prove nothing and are never reused.
func (pl *Pipeline) record(rg int64, sel *Selection) {
	if sel.Degraded != "" {
		return
	}
	switch sel.Status {
	case ilp.Optimal:
		if pl.donor == nil || rg >= pl.donorRG {
			pl.donor, pl.donorRG = sel, rg
		}
	case ilp.Infeasible:
		if rg < pl.infeasAt {
			pl.infeasAt = rg
		}
	}
}

// SweepEach runs the pipeline over explicit required gains, invoking
// each(point) as every point completes, always in gains order. observe
// and each run on the calling goroutine; the sweep aborts on the first
// solve error.
func (a *Analysis) SweepEach(ctx context.Context, gains []int64, bud budget.Budget, observe func(int, Incumbent), each func(Point)) error {
	pl := a.NewPipeline(gains, bud, observe)
	for {
		pt, ok, err := pl.Next(ctx)
		if !ok {
			return nil
		}
		if err != nil {
			return err
		}
		if each != nil {
			each(pt)
		}
	}
}

// SweepPoints is the evenly spaced sweep over the shared analysis:
// `points` required gains from max/points up to the reachable maximum,
// returned in required-gain order. This is what Design.SweepCtx runs.
func (a *Analysis) SweepPoints(ctx context.Context, points int, bud budget.Budget, observe func(Incumbent)) ([]SweepPoint, error) {
	if points < 2 {
		points = 2
	}
	gains := make([]int64, points)
	for i := 1; i <= points; i++ {
		gains[i-1] = a.maxGain * int64(i) / int64(points)
	}
	out := make([]SweepPoint, points)
	var obs func(int, Incumbent)
	if observe != nil {
		obs = func(_ int, inc Incumbent) { observe(inc) }
	}
	err := a.SweepEach(ctx, gains, bud, obs, func(pt Point) {
		out[pt.Index] = SweepPoint{Required: pt.Required, Sel: pt.Sel}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
