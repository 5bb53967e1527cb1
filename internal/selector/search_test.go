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
// Solve, then how its nodes ended (infeasible in presolve, infeasible by
// LP, pruned by bound, integral, branched), which sum to its nodes. The
// full tables pass is 418 / 418 / 14 148 / 1 037, with outcomes
// 37 / 56 / 37 / 35 / 253. The serial solver is deterministic, so any
// change to the node order, the entering or leaving choices, the pivot
// arithmetic or the presolve shows up here. A change that alters the
// search on purpose updates this table and says so. Bound propagation in
// the node presolve did: it replaced 568 / 568 / 20 701 / 1 052, whose
// outcomes were 0 / 163 / 47 / 25 / 333, and cut nodes on 17 of the 21
// rows. Before that the bounded-variable simplex and the per-node
// presolve replaced 566 / 566 / 24 801 (with no flips).
func TestSearchCountersGolden(t *testing.T) {
	type key struct {
		table string
		rg    int64
	}
	golden := map[key][9]int64{
		{"T1", 47740}:    {18, 18, 607, 0, 0, 0, 3, 2, 13},
		{"T1", 95480}:    {12, 12, 406, 0, 0, 0, 4, 1, 7},
		{"T1", 143221}:   {8, 8, 269, 12, 0, 0, 0, 1, 7},
		{"T1", 190961}:   {52, 52, 1734, 90, 11, 9, 1, 0, 31},
		{"T1", 238702}:   {30, 30, 1155, 51, 4, 4, 3, 1, 18},
		{"T1", 286442}:   {28, 28, 1178, 57, 4, 2, 4, 2, 16},
		{"T1", 334182}:   {34, 34, 1600, 179, 3, 6, 1, 1, 23},
		{"T1", 381923}:   {58, 58, 2910, 402, 2, 17, 1, 0, 38},
		{"T2", 22240}:    {34, 34, 505, 5, 5, 1, 6, 2, 20},
		{"T2", 44481}:    {22, 22, 459, 0, 0, 0, 6, 2, 14},
		{"T2", 111203}:   {8, 8, 186, 0, 0, 0, 2, 1, 5},
		{"T2", 133444}:   {10, 10, 387, 9, 0, 0, 2, 2, 6},
		{"T2", 155684}:   {8, 8, 280, 8, 0, 0, 0, 2, 6},
		{"T2", 177925}:   {12, 12, 520, 37, 1, 1, 0, 4, 6},
		{"T2", 200166}:   {18, 18, 798, 101, 0, 5, 1, 2, 10},
		{"T2", 211286}:   {8, 8, 427, 66, 0, 3, 0, 2, 3},
		{"T3", 12157384}: {12, 12, 130, 0, 2, 0, 1, 2, 7},
		{"T3", 20262307}: {12, 12, 145, 2, 1, 2, 1, 2, 6},
		{"T3", 37195000}: {16, 16, 129, 8, 2, 2, 1, 2, 9},
		{"T3", 37282645}: {10, 10, 116, 2, 1, 2, 0, 2, 5},
		{"T3", 37843700}: {8, 8, 207, 8, 1, 2, 0, 2, 3},
	}
	tables := []struct {
		name string
		gen  func() (*imp.DB, []apps.TableRow, error)
	}{
		{"T1", apps.GSMEncoderTable},
		{"T2", apps.GSMDecoderTable},
		{"T3", apps.JPEGEncoderTable},
	}
	var sum [9]int64
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
			s := sel.Search
			got := [9]int64{int64(sel.Nodes), s.ColdLPs, s.PrimalPivots, s.BoundFlips,
				s.PresolveInfeasible, s.LPInfeasible, s.BoundPruned, s.Integral, s.Branched}
			if got != want {
				t.Errorf("%s RG=%d: nodes/cold LPs/pivots/flips, then outcomes = %v, golden %v", tb.name, row.RG, got, want)
			}
			if ended := got[4] + got[5] + got[6] + got[7] + got[8]; ended != got[0] {
				t.Errorf("%s RG=%d: outcomes sum to %d, nodes %d", tb.name, row.RG, ended, got[0])
			}
			for i := range sum {
				sum[i] += got[i]
			}
		}
	}
	if rows != len(golden) {
		t.Errorf("%d published rows, %d golden", rows, len(golden))
	}
	if want := [9]int64{418, 418, 14148, 1037, 37, 56, 37, 35, 253}; sum != want {
		t.Errorf("full pass: nodes/cold LPs/pivots/flips, then outcomes = %v, want %v", sum, want)
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
