package selector

import (
	"context"
	"testing"

	"partita/internal/apps"
	"partita/internal/ilp"
	"partita/internal/imp"
)

// TestSearchCountersGolden pins the search of every published row of
// Tables 1-3: nodes, cold LPs, simplex pivots and bound flips of one
// Solve, summing to the 568 / 568 / 20 701 / 1 052 of the benchmark's
// full tables pass. The serial solver is deterministic, so any change to
// the node order, the entering or leaving choices, or the pivot
// arithmetic shows up here. A change that alters the search on purpose
// updates this table and says so. The bounded-variable simplex and the
// per-node presolve did: they replaced 566 / 566 / 24 801 (with no
// flips), moving the per-row splits (T1 at 238702 and 286442, T2 at
// 133444, T3 at 37843700) and cutting pivots on every row.
func TestSearchCountersGolden(t *testing.T) {
	type key struct {
		table string
		rg    int64
	}
	golden := map[key][4]int64{
		{"T1", 47740}:    {30, 30, 784, 0},
		{"T1", 95480}:    {18, 18, 542, 0},
		{"T1", 143221}:   {16, 16, 540, 22},
		{"T1", 190961}:   {90, 90, 3353, 127},
		{"T1", 238702}:   {38, 38, 1559, 44},
		{"T1", 286442}:   {32, 32, 1637, 58},
		{"T1", 334182}:   {44, 44, 2088, 198},
		{"T1", 381923}:   {58, 58, 3003, 403},
		{"T2", 22240}:    {36, 36, 710, 0},
		{"T2", 44481}:    {26, 26, 529, 0},
		{"T2", 111203}:   {12, 12, 275, 0},
		{"T2", 133444}:   {18, 18, 723, 8},
		{"T2", 155684}:   {16, 16, 540, 8},
		{"T2", 177925}:   {22, 22, 1172, 26},
		{"T2", 200166}:   {32, 32, 1762, 73},
		{"T2", 211286}:   {8, 8, 444, 69},
		{"T3", 12157384}: {16, 16, 233, 0},
		{"T3", 20262307}: {16, 16, 198, 1},
		{"T3", 37195000}: {22, 22, 273, 5},
		{"T3", 37282645}: {10, 10, 118, 2},
		{"T3", 37843700}: {8, 8, 218, 8},
	}
	tables := []struct {
		name string
		gen  func() (*imp.DB, []apps.TableRow, error)
	}{
		{"T1", apps.GSMEncoderTable},
		{"T2", apps.GSMDecoderTable},
		{"T3", apps.JPEGEncoderTable},
	}
	var sum [4]int64
	rows := 0
	for _, tb := range tables {
		db, published, err := tb.gen()
		if err != nil {
			t.Fatal(err)
		}
		an := NewAnalysis(db)
		for _, row := range published {
			rows++
			want, ok := golden[key{tb.name, row.RG}]
			if !ok {
				t.Errorf("%s RG=%d: no golden counters", tb.name, row.RG)
				continue
			}
			sel, err := an.Solve(context.Background(), Problem{Required: row.RG})
			if err != nil {
				t.Fatalf("%s RG=%d: %v", tb.name, row.RG, err)
			}
			got := [4]int64{int64(sel.Nodes), sel.Search.ColdLPs, sel.Search.PrimalPivots, sel.Search.BoundFlips}
			if got != want {
				t.Errorf("%s RG=%d: nodes/cold LPs/pivots/flips = %v, golden %v", tb.name, row.RG, got, want)
			}
			for i := range sum {
				sum[i] += got[i]
			}
		}
	}
	if rows != len(golden) {
		t.Errorf("%d published rows, %d golden", rows, len(golden))
	}
	if sum != [4]int64{568, 568, 20701, 1052} {
		t.Errorf("full pass: nodes/cold LPs/pivots/flips = %v, want [568 568 20701 1052]", sum)
	}
}

// TestLPRoundReportsSearch: every selection the LP-rounding engine
// returns on the GSM encoder carries its one cold LP and that LP's
// pivots in Search — at each published row and at an unreachable
// requirement, whose relaxation proves the instance infeasible.
func TestLPRoundReportsSearch(t *testing.T) {
	db, rows, err := apps.GSMEncoderTable()
	if err != nil {
		t.Fatal(err)
	}
	an := NewAnalysis(db)
	required := []int64{an.MaxGain() + 1}
	for _, row := range rows {
		required = append(required, row.RG)
	}
	for _, rg := range required {
		sel, _, err := an.LPRound(context.Background(), Problem{Required: rg}, nil)
		if err != nil {
			t.Fatalf("RG=%d: %v", rg, err)
		}
		wantStatus := ilp.Feasible
		if rg > an.MaxGain() {
			wantStatus = ilp.Infeasible
		}
		if sel.Status != wantStatus || sel.Search.ColdLPs != 1 || sel.Search.PrimalPivots == 0 {
			t.Errorf("RG=%d: %v, search %+v; want %v with one cold LP and its pivots", rg, sel.Status, sel.Search, wantStatus)
		}
	}
}
