package selector

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"partita/internal/apps"
	"partita/internal/iface"
	"partita/internal/ilp"
	"partita/internal/imp"
	"partita/internal/ip"
)

// The capacity bound feeds the racing portfolio's acceptability judge
// as a *proven* floor, so its soundness is load-bearing: a bound above
// the true optimum would make the portfolio deliver wrong answers (and,
// installed as an area floor, cut the optimum out of the exact model).
// These tests pin the bound below the proven optimum across a seeded
// synthetic corpus and check the witness prices out exactly.

// CapacityBound is CapacityWitness's lower bound alone.
func (a *Analysis) CapacityBound(p Problem) float64 {
	bound, _ := a.CapacityWitness(p)
	return bound
}

func capIP(id string, area float64) *ip.IP {
	return &ip.IP{ID: id, Name: id, Area: area}
}

// TestCapacityBoundNeverExceedsOptimum: across seeded random instances
// and requirement levels, CapacityBound ≤ the exact optimal area, and a
// +Inf bound only appears when the exact solver proves infeasibility.
func TestCapacityBoundNeverExceedsOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	types := []iface.Type{iface.Type0, iface.Type1, iface.Type2, iface.Type3}
	for c := 0; c < 25; c++ {
		nSC := 2 + rng.Intn(4)
		funcs := make([]string, nSC)
		for i := range funcs {
			funcs[i] = string(rune('a' + i))
		}
		nIP := 2 + rng.Intn(3)
		ips := make([]*ip.IP, nIP)
		for i := range ips {
			ips[i] = capIP(string(rune('A'+i)), float64(1+rng.Intn(20)))
		}
		var specs []imp.SynthIMP
		for sc := 1; sc <= nSC; sc++ {
			for j := 0; j < 1+rng.Intn(3); j++ {
				specs = append(specs, imp.SynthIMP{
					SC:        sc,
					IP:        ips[rng.Intn(nIP)],
					Type:      types[rng.Intn(len(types))],
					Gain:      int64(50 + rng.Intn(200)),
					IfaceArea: float64(rng.Intn(5)),
				})
			}
		}
		db, err := imp.NewSyntheticDB(funcs, specs)
		if err != nil {
			t.Fatal(err)
		}
		an := NewAnalysis(db)
		for _, frac := range []int64{25, 60, 100} {
			rg := an.MaxGain() * frac / 100
			p := Problem{DB: db, Required: rg}
			bound := an.CapacityBound(p)
			ref, err := an.Solve(context.Background(), p)
			if err != nil {
				t.Fatalf("corpus %d rg=%d: %v", c, rg, err)
			}
			switch ref.Status {
			case ilp.Optimal:
				if bound > ref.Area+1e-9 {
					t.Fatalf("corpus %d rg=%d: bound %.9f exceeds optimum %.9f", c, rg, bound, ref.Area)
				}
			case ilp.Infeasible:
				// Any bound (including +Inf) is vacuously sound.
			default:
				t.Fatalf("corpus %d rg=%d: unexpected status %v", c, rg, ref.Status)
			}
		}
	}
}

// TestCapacityWitnessFeasibleAndPriced: when a witness comes back it
// meets every path requirement and its area is at least the bound (the
// bound is a relaxation; the witness is a real selection).
func TestCapacityWitnessFeasibleAndPriced(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	types := []iface.Type{iface.Type0, iface.Type1}
	witnessed := 0
	for c := 0; c < 25; c++ {
		nSC := 2 + rng.Intn(3)
		funcs := make([]string, nSC)
		for i := range funcs {
			funcs[i] = string(rune('a' + i))
		}
		ips := []*ip.IP{capIP("A", float64(2+rng.Intn(10))), capIP("B", float64(2+rng.Intn(10)))}
		var specs []imp.SynthIMP
		for sc := 1; sc <= nSC; sc++ {
			specs = append(specs, imp.SynthIMP{
				SC: sc, IP: ips[rng.Intn(2)], Type: types[rng.Intn(2)],
				Gain: int64(50 + rng.Intn(100)), IfaceArea: float64(rng.Intn(3)),
			})
		}
		db, err := imp.NewSyntheticDB(funcs, specs)
		if err != nil {
			t.Fatal(err)
		}
		an := NewAnalysis(db)
		rg := an.MaxGain() / 2
		p := Problem{DB: db, Required: rg}
		bound, w := an.CapacityWitness(p)
		if w == nil {
			continue
		}
		witnessed++
		if w.Status != ilp.Feasible {
			t.Fatalf("corpus %d: witness status %v", c, w.Status)
		}
		for k, g := range w.PathGains {
			if g < rg {
				t.Fatalf("corpus %d: witness path %d gain %d < required %d", c, k, g, rg)
			}
		}
		if !math.IsInf(bound, 0) && w.Area < bound-1e-9 {
			t.Fatalf("corpus %d: witness area %.9f below its own bound %.9f", c, w.Area, bound)
		}
	}
	if witnessed == 0 {
		t.Fatal("no corpus instance produced a witness; test is vacuous")
	}
}

// TestCapacityBoundInfeasiblePath: a requirement beyond every IP's
// combined capacity yields +Inf — the instant infeasibility signal.
func TestCapacityBoundInfeasiblePath(t *testing.T) {
	db, err := imp.NewSyntheticDB([]string{"a"}, []imp.SynthIMP{
		{SC: 1, IP: capIP("A", 5), Type: iface.Type0, Gain: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	an := NewAnalysis(db)
	if b := an.CapacityBound(Problem{DB: db, Required: an.MaxGain() + 1}); !math.IsInf(b, 1) {
		t.Fatalf("bound = %v, want +Inf", b)
	}
	if b := an.CapacityBound(Problem{DB: db, Required: 0}); b != 0 {
		t.Fatalf("zero requirement: bound = %v, want 0", b)
	}
}

// publishedTables are the paper's three tables, whose 21 rows are the
// published requirements.
var publishedTables = []struct {
	name string
	gen  func() (*imp.DB, []apps.TableRow, error)
}{
	{"T1", apps.GSMEncoderTable},
	{"T2", apps.GSMDecoderTable},
	{"T3", apps.JPEGEncoderTable},
}

// denseCapacityDP is the covering-knapsack DP as a dense table of rg+1
// floats per IP, the form capacityDP's step lists replaced; it stays
// here as their reference, with capacityDP's signature and contract.
func denseCapacityDP(in *instance, capacity map[string]int64, minIface map[string]float64, rg int64, witness map[string]bool) float64 {
	base := make([]float64, rg+1)
	for g := int64(1); g <= rg; g++ {
		base[g] = math.Inf(1)
	}
	var items []string
	var rows [][]float64
	dp := base
	for _, id := range in.ipIDs {
		gj := capacity[id]
		if gj <= 0 {
			continue
		}
		if witness != nil {
			rows = append(rows, dp)
			items = append(items, id)
			dp = append([]float64(nil), dp...)
		}
		aj := in.ipArea[id] + minIface[id]
		for g := rg; g >= 1; g-- {
			rest := g - gj
			if rest < 0 {
				rest = 0
			}
			if c := dp[rest] + aj; c < dp[g] {
				dp[g] = c
			}
		}
	}
	bound := dp[rg]
	if witness != nil {
		g := rg
		for i := len(items) - 1; i >= 0 && g > 0; i-- {
			if dp[g] == rows[i][g] {
				dp = rows[i] // item unused; its predecessor row decides the rest
				continue
			}
			witness[items[i]] = true
			if g -= capacity[items[i]]; g < 0 {
				g = 0
			}
			dp = rows[i]
		}
	}
	return bound
}

// enumCapacityDP evaluates the dense DP's recurrence without its table,
// for requirements a table of rg+1 floats cannot hold: row i's value at
// g is the least area, summed in ipIDs order as the DP adds it, over the
// subsets of the first i IPs whose capacities reach g. The backtrack is
// denseCapacityDP's, on those values.
func enumCapacityDP(in *instance, capacity map[string]int64, minIface map[string]float64, rg int64, witness map[string]bool) float64 {
	var items []string
	for _, id := range in.ipIDs {
		if capacity[id] > 0 {
			items = append(items, id)
		}
	}
	row := func(i int, g int64) float64 {
		best := math.Inf(1)
		for mask := 0; mask < 1<<i; mask++ {
			var gain int64
			area := 0.0
			for b := 0; b < i; b++ {
				if mask&(1<<b) != 0 {
					gain += capacity[items[b]]
					area += in.ipArea[items[b]] + minIface[items[b]]
				}
			}
			if gain >= g && area < best {
				best = area
			}
		}
		return best
	}
	if witness != nil {
		g := rg
		for i := len(items) - 1; i >= 0 && g > 0; i-- {
			if row(i+1, g) == row(i, g) {
				continue
			}
			witness[items[i]] = true
			if g -= capacity[items[i]]; g < 0 {
				g = 0
			}
		}
	}
	return row(len(items), rg)
}

// matchPathDPs checks capacityDP against ref on every path of p that
// demands gain: the same bound, to the bit, with and without a witness
// map, and the same witness IP set. It returns the path DPs compared.
func matchPathDPs(t *testing.T, what string, an *Analysis, p Problem, ref func(*instance, map[string]int64, map[string]float64, int64, map[string]bool) float64) int {
	t.Helper()
	in := &instance{Analysis: an, p: p}
	minIface := an.minIfaceAreas()
	n := 0
	for k := range an.db.Paths {
		rg := in.required(k)
		if rg <= 0 {
			continue
		}
		n++
		capacity := in.ipGainCapacity(k)
		got := capacityDP(in, capacity, minIface, rg, nil)
		gotW, wantW := map[string]bool{}, map[string]bool{}
		withW := capacityDP(in, capacity, minIface, rg, gotW)
		want := ref(in, capacity, minIface, rg, wantW)
		if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(withW) != math.Float64bits(want) {
			t.Errorf("%s path %d rg=%d: bound %v (with witness %v), reference %v", what, k, rg, got, withW, want)
		}
		if !reflect.DeepEqual(gotW, wantW) {
			t.Errorf("%s path %d rg=%d: witness %v, reference %v", what, k, rg, gotW, wantW)
		}
	}
	return n
}

// TestCapacityDPMatchesDense: the step-list DP reproduces the dense
// table's bound bit for bit, and its witness IP set, on every path of
// the 21 published rows, of a 40-point grid over each table's reachable
// gain up to 2^20, and of 300 random DBs with 2–15 IPs and fractional
// areas at six requirement levels, 10% to 200% of MaxGain. Table 3's
// published requirements lie above 2^20, where a dense table takes
// 100–300 MB, so enumCapacityDP is their reference; on the grid it must
// agree with the dense table too.
func TestCapacityDPMatchesDense(t *testing.T) {
	const denseMax = 1 << 20
	dps := 0
	for _, tb := range publishedTables {
		db, rows, err := tb.gen()
		if err != nil {
			t.Fatal(err)
		}
		an := NewAnalysis(db)
		for _, row := range rows {
			ref := denseCapacityDP
			if row.RG > denseMax {
				ref = enumCapacityDP
			}
			dps += matchPathDPs(t, fmt.Sprintf("%s row", tb.name), an, Problem{Required: row.RG}, ref)
		}
		top := min(an.MaxGain(), denseMax)
		for i := int64(1); i <= 40; i++ {
			p := Problem{Required: top * i / 40}
			dps += matchPathDPs(t, fmt.Sprintf("%s grid", tb.name), an, p, denseCapacityDP)
			matchPathDPs(t, fmt.Sprintf("%s grid (enumerated)", tb.name), an, p, enumCapacityDP)
		}
	}
	rng := rand.New(rand.NewSource(1969))
	types := []iface.Type{iface.Type0, iface.Type1, iface.Type2, iface.Type3}
	for c := 0; c < 300; c++ {
		nIP := 2 + rng.Intn(14)
		nSC := 2 + rng.Intn(7)
		funcs := make([]string, nSC)
		for i := range funcs {
			funcs[i] = fmt.Sprintf("f%d", i)
		}
		ips := make([]*ip.IP, nIP)
		for i := range ips {
			ips[i] = capIP(fmt.Sprintf("IP%02d", i), float64(1+rng.Intn(200))/10)
		}
		var specs []imp.SynthIMP
		for i := 0; i < nIP+rng.Intn(2*nIP); i++ {
			ipi := i
			if ipi >= nIP {
				ipi = rng.Intn(nIP)
			}
			specs = append(specs, imp.SynthIMP{
				SC:        1 + rng.Intn(nSC),
				IP:        ips[ipi],
				Type:      types[rng.Intn(len(types))],
				Gain:      int64(10 + rng.Intn(1000)),
				IfaceArea: float64(rng.Intn(40)) / 10,
			})
		}
		db, err := imp.NewSyntheticDB(funcs, specs)
		if err != nil {
			t.Fatal(err)
		}
		an := NewAnalysis(db)
		for _, pct := range []int64{10, 30, 50, 70, 90, 200} {
			rg := max(1, an.MaxGain()*pct/100)
			dps += matchPathDPs(t, fmt.Sprintf("random %d", c), an, Problem{Required: rg}, denseCapacityDP)
		}
	}
	t.Logf("%d path DPs match the dense table", dps)
}

// TestCapacityBoundBelowPublishedOptima: on each of the 21 published
// rows the bound is positive and at most the exact optimal area. Table
// 3's requirements (12–38 M) exceed what a dense DP table could hold;
// the step lists bound them too.
func TestCapacityBoundBelowPublishedOptima(t *testing.T) {
	for _, tb := range publishedTables {
		db, rows, err := tb.gen()
		if err != nil {
			t.Fatal(err)
		}
		an := NewAnalysis(db)
		for _, row := range rows {
			p := Problem{Required: row.RG}
			bound := an.CapacityBound(p)
			sel, err := an.Solve(context.Background(), p)
			if err != nil {
				t.Fatalf("%s RG=%d: %v", tb.name, row.RG, err)
			}
			if sel.Status != ilp.Optimal {
				t.Fatalf("%s RG=%d: status %v", tb.name, row.RG, sel.Status)
			}
			if !(bound > 0) || bound > sel.Area+1e-9 {
				t.Errorf("%s RG=%d: bound %v, optimum %v", tb.name, row.RG, bound, sel.Area)
			}
			t.Logf("%s RG=%d: bound %v, optimum %v", tb.name, row.RG, bound, sel.Area)
		}
	}
}

// TestCapacityWitnessAllocation pins the layer's cost: CapacityWitness
// runs synchronously at the start of every portfolio race, so on each
// published row it may allocate at most 256 KiB per call. A table of
// rg+1 floats per IP takes megabytes on every row.
func TestCapacityWitnessAllocation(t *testing.T) {
	const limit = 256 << 10
	const calls = 10
	for _, tb := range publishedTables {
		db, rows, err := tb.gen()
		if err != nil {
			t.Fatal(err)
		}
		an := NewAnalysis(db)
		for _, row := range rows {
			p := Problem{Required: row.RG}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i++ {
				an.CapacityWitness(p)
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > limit {
				t.Errorf("%s RG=%d: %d bytes allocated per call, limit %d", tb.name, row.RG, per, limit)
			}
		}
	}
}
