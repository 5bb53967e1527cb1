package selector

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"partita/internal/apps"
	"partita/internal/cdfg"
	"partita/internal/ilp"
	"partita/internal/imp"
)

// referenceBuild is the selection model as build assembles it, from
// string-keyed maps: constraint (1) by s-call pointer, the (IP, s-call)
// cuts by an "IP\x00SC" key, group rows by scanning every method per
// group, and each path's capacities recomputed for every cut family
// that reads them. It applies build's two row rules by its own means: a
// method's x ≤ z link only when its "IP\x00SC" key holds no other
// method, and x ≤ y links only when y is priced. It carries build's
// names, so the two models print alike exactly when they hold the same
// variables and rows, with the same coefficients, in the same order. It
// returns the model and its area expression (areaTerms).
func referenceBuild(in *instance, objX func(i int) float64, objZ func(area float64) float64, objYCount, objGArea float64) (*ilp.Model, []ilp.Term) {
	return referenceForm{}.build(in, objX, objZ, objYCount, objGArea)
}

// referenceForm picks the model referenceBuild's rows are checked
// against. relax adds every binary as a [0,1] column, so Solve runs one
// LP. everyLink emits x ≤ z for every method and x ≤ y whether or not y
// is priced: the model with every link, whose LPs the row rules must
// leave as they are.
type referenceForm struct{ relax, everyLink bool }

func (f referenceForm) build(in *instance, objX func(i int) float64, objZ func(area float64) float64, objYCount, objGArea float64) (*ilp.Model, []ilp.Term) {
	db := in.db
	m := ilp.NewModel()
	binary := m.AddBinary
	if f.relax {
		binary = func(name string, obj float64) ilp.VarID { return m.AddVar(name, 0, 1, obj) }
	}
	xs := make([]ilp.VarID, len(db.IMPs))
	zs := map[string]ilp.VarID{}
	as := map[group]ilp.VarID{}
	for i := range db.IMPs {
		xs[i] = binary("x", objX(i))
	}
	for _, sc := range db.SCalls {
		var terms []ilp.Term
		for i, im := range db.IMPs {
			if im.SC == sc {
				terms = append(terms, ilp.Term{Var: xs[i], Coef: 1})
			}
		}
		if terms != nil {
			m.AddConstraint("one", terms, ilp.LE, 1)
		}
	}
	for k := range db.Paths {
		rg := in.required(k)
		if rg <= 0 {
			continue
		}
		var terms []ilp.Term
		for i := range db.IMPs {
			if c := in.pathCoef(k, i); c != 0 {
				terms = append(terms, ilp.Term{Var: xs[i], Coef: float64(c)})
			}
		}
		if terms == nil {
			terms = []ilp.Term{{Var: xs[0], Coef: 0}}
		}
		m.AddConstraint("path", terms, ilp.GE, float64(rg))
	}
	byIPSC := map[string][]ilp.Term{}
	for i, im := range db.IMPs {
		key := im.IP.ID + "\x00" + im.SC.Name()
		byIPSC[key] = append(byIPSC[key], ilp.Term{Var: xs[i], Coef: 1})
	}
	for _, id := range in.ipIDs {
		z := binary("z", objZ(in.ipArea[id]))
		zs[id] = z
		for i, im := range db.IMPs {
			if im.IP.ID == id && (f.everyLink || len(byIPSC[id+"\x00"+im.SC.Name()]) == 1) {
				m.AddConstraint("fc", []ilp.Term{{Var: xs[i], Coef: 1}, {Var: z, Coef: -1}}, ilp.LE, 0)
			}
		}
	}
	grpArea := map[group]float64{}
	for _, im := range db.IMPs {
		g := group{im.IP.ID, im.Cand.Type, im.Flattened}
		if im.IfaceArea > grpArea[g] {
			grpArea[g] = im.IfaceArea
		}
	}
	if !in.p.DisableMerging {
		for _, g := range in.groups {
			y := binary("y", objYCount)
			a := m.AddVar("a", 0, grpArea[g], objGArea)
			as[g] = a
			for i, im := range db.IMPs {
				if (group{im.IP.ID, im.Cand.Type, im.Flattened}) != g {
					continue
				}
				if f.everyLink || objYCount != 0 {
					m.AddConstraint("fy", []ilp.Term{{Var: xs[i], Coef: 1}, {Var: y, Coef: -1}}, ilp.LE, 0)
				}
				if im.IfaceArea > 0 {
					m.AddConstraint("ga", []ilp.Term{{Var: xs[i], Coef: im.IfaceArea}, {Var: a, Coef: -1}}, ilp.LE, 0)
				}
			}
		}
	}
	for _, c := range db.Conflicts {
		m.AddConstraint("conflict", []ilp.Term{{Var: xs[c[0]], Coef: 1}, {Var: xs[c[1]], Coef: 1}}, ilp.LE, 1)
	}
	for _, id := range in.ipIDs {
		for _, sc := range db.SCalls {
			terms := byIPSC[id+"\x00"+sc.Name()]
			if len(terms) < 2 {
				continue
			}
			terms = append(terms[:len(terms):len(terms)], ilp.Term{Var: zs[id], Coef: -1})
			m.AddConstraint("fcs", terms, ilp.LE, 0)
		}
	}
	for k := range db.Paths {
		rg := in.required(k)
		if rg <= 0 {
			continue
		}
		capacity := referenceCapacity(in, k)
		var terms []ilp.Term
		for _, id := range in.ipIDs {
			if g := capacity[id]; g > 0 {
				terms = append(terms, ilp.Term{Var: zs[id], Coef: float64(g)})
			}
		}
		if terms != nil {
			m.AddConstraint("ipcap", terms, ilp.GE, float64(rg))
		}
	}
	for k := range db.Paths {
		rg := in.required(k)
		if rg <= 0 {
			continue
		}
		capacity := referenceCapacity(in, k)
		caps := make([]int64, 0, len(capacity))
		for _, g := range capacity {
			caps = append(caps, g)
		}
		if kappa := referenceCoverCount(caps, rg); kappa >= 2 {
			var terms []ilp.Term
			for _, id := range in.ipIDs {
				if capacity[id] > 0 {
					terms = append(terms, ilp.Term{Var: zs[id], Coef: 1})
				}
			}
			m.AddConstraint("zcover", terms, ilp.GE, float64(kappa))
		}
		bestSC := map[string]int64{}
		for i, im := range db.IMPs {
			if c := in.pathCoef(k, i); c > bestSC[im.SC.Name()] {
				bestSC[im.SC.Name()] = c
			}
		}
		best := make([]int64, 0, len(bestSC))
		for _, g := range bestSC {
			best = append(best, g)
		}
		if lambda := referenceCoverCount(best, rg); lambda >= 2 {
			var terms []ilp.Term
			for i := range db.IMPs {
				if in.pathCoef(k, i) > 0 {
					terms = append(terms, ilp.Term{Var: xs[i], Coef: 1})
				}
			}
			m.AddConstraint("xcover", terms, ilp.GE, float64(lambda))
		}
	}
	for k := range db.Paths {
		rg := in.required(k)
		if rg <= 0 {
			continue
		}
		capacity := referenceCapacity(in, k)
		var total int64
		for _, g := range capacity {
			total += g
		}
		for _, id := range in.ipIDs {
			if g := capacity[id]; g > 0 && total-g < rg {
				m.AddConstraint("force", []ilp.Term{{Var: zs[id], Coef: 1}}, ilp.GE, 1)
			}
		}
	}

	var area []ilp.Term
	for _, id := range in.ipIDs {
		area = append(area, ilp.Term{Var: zs[id], Coef: in.ipArea[id]})
	}
	if in.p.DisableMerging {
		for i, im := range db.IMPs {
			area = append(area, ilp.Term{Var: xs[i], Coef: im.IfaceArea})
		}
	} else {
		for _, g := range in.groups {
			area = append(area, ilp.Term{Var: as[g], Coef: 1})
		}
	}
	return m, area
}

// referenceCapacity is pathCapacity by string keys: per IP, the sum over
// s-calls of the IP's best method gain on path k, holding only the IPs
// with a positive sum.
func referenceCapacity(in *instance, k int) map[string]int64 {
	capacity := map[string]int64{}
	best := map[string]int64{}
	for i, im := range in.db.IMPs {
		key := im.IP.ID + "\x00" + im.SC.Name()
		if c := in.pathCoef(k, i); c > best[key] {
			capacity[im.IP.ID] += c - best[key]
			best[key] = c
		}
	}
	return capacity
}

// referenceCoverCount is coverCount over a list of positive capacities.
func referenceCoverCount(caps []int64, need int64) int {
	if need <= 0 {
		return 0
	}
	sort.Slice(caps, func(a, b int) bool { return caps[a] > caps[b] })
	var sum int64
	for n, g := range caps {
		sum += g
		if sum >= need {
			return n + 1
		}
	}
	return len(caps) + 1
}

// buildFunc assembles one pass's model and its area expression.
type buildFunc func(in *instance, objX func(i int) float64, objZ func(area float64) float64, objYCount, objGArea float64) (*ilp.Model, []ilp.Term)

func indexBuild(in *instance, objX func(i int) float64, objZ func(area float64) float64, objYCount, objGArea float64) (*ilp.Model, []ilp.Term) {
	h := in.build(objX, objZ, objYCount, objGArea)
	return h.m, in.areaTerms(h)
}

// passModels builds the models of both passes with solveBound's
// objectives: the area pass with an area-floor row at floor, and the
// tie-break pass with its pin row at limit.
func passModels(in *instance, build buildFunc, floor, limit float64) [2]*ilp.Model {
	ifaceObj := func(i int) float64 {
		if in.p.DisableMerging {
			return in.db.IMPs[i].IfaceArea
		}
		return 0
	}
	m1, area1 := build(in, ifaceObj, func(a float64) float64 { return a }, 0, 1)
	m1.AddConstraint("area_floor", area1, ilp.GE, floor-1e-6)
	n := float64(len(in.db.IMPs) + len(in.groups) + 1)
	m2, area2 := build(in,
		func(i int) float64 { return float64(in.totalGain[i]) + 0.25/n },
		func(a float64) float64 { return 0 },
		0.5/n, 0)
	m2.AddConstraint("pin_area", area2, ilp.LE, limit)
	return [2]*ilp.Model{m1, m2}
}

// rowsOf renders every row of m with its variables' indices, in row
// order. Model.String names a variable only by its kind, so it reads
// the model's unexported rows through reflect.
func rowsOf(m *ilp.Model) []string {
	cons := reflect.ValueOf(m).Elem().FieldByName("cons")
	rows := make([]string, cons.Len())
	for r := range rows {
		c := cons.Index(r)
		var b strings.Builder
		b.WriteString(c.FieldByName("name").String())
		terms := c.FieldByName("terms")
		for k := 0; k < terms.Len(); k++ {
			fmt.Fprintf(&b, " %g·v%d", terms.Index(k).FieldByName("Coef").Float(), terms.Index(k).FieldByName("Var").Int())
		}
		fmt.Fprintf(&b, " %v %g", ilp.Rel(c.FieldByName("rel").Int()), c.FieldByName("rhs").Float())
		rows[r] = b.String()
	}
	return rows
}

// holdsPassOneRows reports whether pass 2's rows hold every pass-1 row
// but the area floor, in pass 1's order: SolveWithin's contract needs
// every point the pinned pass accepts to be one pass 1 accepts.
func holdsPassOneRows(passes [2]*ilp.Model) bool {
	two := rowsOf(passes[1])
	for _, row := range rowsOf(passes[0]) {
		if strings.HasPrefix(row, "area_floor ") {
			continue
		}
		for len(two) > 0 && two[0] != row {
			two = two[1:]
		}
		if len(two) == 0 {
			return false
		}
		two = two[1:]
	}
	return true
}

// rulesKeepLPs checks on one instance that build's row rules change no
// LP. With binaries relaxed, the reference model with every link and
// the one under the rules must reach the same status, with objectives
// within 1e-9 relative, in both passes: at the root and under three
// random 0-1 fixings of x and z, added to both as the same rows. Pass 1
// carries its area floor at floor; pass 2 pins the area at pass 1's LP
// optimum under the same fixings, so the pin binds. It returns the
// number of LPs solved.
func rulesKeepLPs(t *testing.T, name string, in *instance, floor float64, rng *rng) int {
	t.Helper()
	forms := [2]buildFunc{referenceForm{relax: true, everyLink: true}.build, referenceForm{relax: true}.build}
	// The reference adds x in IMP order, then z in ipIDs order.
	nxz := len(in.db.IMPs) + len(in.ipIDs)
	lps := 0
	for f := 0; f <= 3; f++ {
		// fix holds each fixed column in Var and its value in Coef; the
		// root (f = 0) fixes none.
		var fix []ilp.Term
		for k := 1 + rng.n(4); f > 0 && k > 0; k-- {
			fix = append(fix, ilp.Term{Var: ilp.VarID(rng.n(nxz)), Coef: float64(rng.n(2))})
		}
		limit := 10.0
		for pass := 0; pass < 2; pass++ {
			var sols [2]*ilp.Solution
			for form, build := range forms {
				m := passModels(in, build, floor, limit)[pass]
				for _, x := range fix {
					if kind := m.VarName(x.Var); kind != "x" && kind != "z" {
						t.Fatalf("%s: fixing column %d, a %s", name, x.Var, kind)
					}
					m.AddConstraint("fix", []ilp.Term{{Var: x.Var, Coef: 1}}, ilp.EQ, x.Coef)
				}
				sol, err := m.Solve()
				if err != nil {
					t.Fatalf("%s, pass %d, fixings %v: %v", name, pass+1, fix, err)
				}
				sols[form] = sol
				lps++
			}
			every, rules := sols[0], sols[1]
			if every.Status != rules.Status || (every.Status == ilp.Optimal &&
				math.Abs(every.Objective-rules.Objective) > 1e-9*math.Max(1, math.Abs(every.Objective))) {
				t.Fatalf("%s, pass %d, fixings %v: every link gives %v at %g, the row rules %v at %g",
					name, pass+1, fix, every.Status, every.Objective, rules.Status, rules.Objective)
			}
			if every.Status == ilp.Optimal {
				limit = every.Objective + 1e-6
			}
		}
	}
	return lps
}

// TestBuildMatchesReference: build emits the model referenceBuild does,
// in both passes with the area-floor and pin rows. Model.String() prints
// every coefficient with %g, which round-trips a float64, and the
// models must also be deeply equal, so every term names the same
// variable. Pass 2's rows must hold every pass-1 row but the area floor.
// The instances cover the 21 published rows, 200 random instances with
// conflict pairs, merging disabled, per-path overrides with some paths
// at 0 on instances with several paths, and analyses derived by Apply
// with area and gain edits. On the published rows and the random
// instances, with merging on and off, rulesKeepLPs also checks that the
// row rules change no LP of either pass.
func TestBuildMatchesReference(t *testing.T) {
	type instanceCase struct {
		name string
		an   *Analysis
		p    Problem
		// lp asks for rulesKeepLPs.
		lp bool
	}
	var cases []instanceCase
	add := func(name string, an *Analysis, p Problem, lp bool) {
		cases = append(cases, instanceCase{name, an, p, lp})
		p.DisableMerging = !p.DisableMerging
		cases = append(cases, instanceCase{name + " (merging toggled)", an, p, lp})
	}
	for _, tb := range publishedTables {
		db, rows, err := tb.gen()
		if err != nil {
			t.Fatal(err)
		}
		an := NewAnalysis(db)
		for _, row := range rows {
			add(fmt.Sprintf("%s RG=%d", tb.name, row.RG), an, Problem{Required: row.RG}, true)
		}
		// Edited analyses: one IP's area raised, another's cut, one
		// method's gain cut and another's raised.
		ed, err := an.Apply(Delta{
			IPArea:  map[string]float64{an.ipIDs[0]: an.ipArea[an.ipIDs[0]] * 2, an.ipIDs[len(an.ipIDs)-1]: 0.5},
			IMPGain: map[string]int64{db.IMPs[0].ID: 1, db.IMPs[len(db.IMPs)-1].ID: db.IMPs[len(db.IMPs)-1].GainPerExec * 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("%s edited", tb.name), ed, Problem{Required: rows[len(rows)/2].RG}, false)
	}
	rng := newRng(24)
	for trial := 0; trial < 200; trial++ {
		funcs, sims := randomSynth(rng, true)
		db, err := imp.NewSyntheticDB(funcs, sims)
		if err != nil {
			t.Fatal(err)
		}
		p := Problem{Required: int64(50 + rng.n(300))}
		if trial%2 == 1 {
			// Several paths, each a random nonempty subset of the sites,
			// with per-path requirements, some 0 and some falling back.
			paths := 2 + rng.n(3)
			db.Paths = make([][]*cdfg.Node, paths)
			p.PerPath = make([]int64, paths)
			for k := range db.Paths {
				for _, sc := range db.SCalls {
					if rng.n(2) == 0 {
						db.Paths[k] = append(db.Paths[k], sc.Sites[0])
					}
				}
				if db.Paths[k] == nil {
					db.Paths[k] = []*cdfg.Node{db.SCalls[rng.n(len(db.SCalls))].Sites[0]}
				}
				switch rng.n(3) {
				case 0:
					p.PerPath[k] = 0
				case 1:
					p.PerPath[k] = -1
				default:
					p.PerPath[k] = int64(20 + rng.n(200))
				}
			}
		}
		an := NewAnalysis(db)
		add(fmt.Sprintf("random %d", trial), an, p, true)
		if trial%10 == 0 {
			ed, err := an.Apply(Delta{
				IPArea:  map[string]float64{an.ipIDs[rng.n(len(an.ipIDs))]: float64(rng.n(12))},
				IMPGain: map[string]int64{db.IMPs[rng.n(len(db.IMPs))].ID: int64(rng.n(250))},
			})
			if err != nil {
				t.Fatal(err)
			}
			add(fmt.Sprintf("random %d edited", trial), ed, p, false)
		}
	}
	fig10, perPath, err := apps.Fig10Problem()
	if err != nil {
		t.Fatal(err)
	}
	add("Fig. 10", NewAnalysis(fig10), Problem{PerPath: perPath}, false)
	add("Fig. 10, path 2 at 0", NewAnalysis(fig10), Problem{PerPath: []int64{perPath[0], 0}}, false)
	for _, problem2 := range []bool{false, true} {
		w, err := apps.GSMEncoderWorkload()
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.Build(problem2)
		if err != nil {
			t.Fatal(err)
		}
		an := NewAnalysis(b.DB)
		per := make([]int64, len(b.DB.Paths))
		for k := range per {
			per[k] = []int64{-1, 0, an.MaxGain() / 4}[k%3]
		}
		name := fmt.Sprintf("GSM encoder (Problem 2: %t, %d paths)", problem2, len(b.DB.Paths))
		add(name, an, Problem{Required: an.MaxGain() / 3}, false)
		add(name+" per path", an, Problem{Required: an.MaxGain() / 3, PerPath: per}, false)
	}

	lpRng := newRng(29)
	lps := 0
	for c, tc := range cases {
		tc.p.DB = tc.an.db
		in := &instance{Analysis: tc.an, p: tc.p}
		floor, limit := 1+float64(c%7), 10+float64(c%5)
		got := passModels(in, indexBuild, floor, limit)
		want := passModels(in, referenceBuild, floor, limit)
		for pass := range got {
			if g, w := got[pass].String(), want[pass].String(); g != w {
				t.Fatalf("%s, pass %d: build differs from the reference\nbuild:\n%s\nreference:\n%s", tc.name, pass+1, g, w)
			}
			if !reflect.DeepEqual(got[pass], want[pass]) {
				t.Fatalf("%s, pass %d: build prints like the reference but differs from it", tc.name, pass+1)
			}
		}
		if !holdsPassOneRows(got) {
			t.Fatalf("%s: pass 2 lacks a pass-1 row other than the area floor", tc.name)
		}
		if tc.lp {
			lps += rulesKeepLPs(t, tc.name, in, floor, lpRng)
		}
	}
	t.Logf("%d instances, both passes each; %d LPs under the row rules and with every link", len(cases), lps)
}

// TestSolveAllocations pins what a solve allocates beyond its search:
// Analysis.Solve on the 21 published rows, with the analyses built
// beforehand, may make at most 6 000 heap allocations in all. A model
// built from strings and maps made about 40 000, and one that copied
// each row's terms into a slice of its own about 8 650.
func TestSolveAllocations(t *testing.T) {
	const limit = 6000
	type table struct {
		an   *Analysis
		rows []apps.TableRow
	}
	var tables []table
	for _, tb := range publishedTables {
		db, rows, err := tb.gen()
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, table{NewAnalysis(db), rows})
	}
	var mallocs uint64
	var before, after runtime.MemStats
	for _, tb := range tables {
		for _, row := range tb.rows {
			runtime.ReadMemStats(&before)
			sel, err := tb.an.Solve(context.Background(), Problem{Required: row.RG})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if sel.Status != ilp.Optimal {
				t.Fatalf("RG=%d: status %v", row.RG, sel.Status)
			}
			mallocs += after.Mallocs - before.Mallocs
		}
	}
	t.Logf("%d allocations over the 21 rows", mallocs)
	if mallocs > limit {
		t.Errorf("%d allocations over the 21 published rows, limit %d", mallocs, limit)
	}
}
