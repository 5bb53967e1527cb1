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
// LP, pruned by bound, integral, branched), which sum to its nodes, then
// the nodes and pivots of its tie-break pass. The full tables pass is
// 303 / 303 / 6 636 / 243, with outcomes 12 / 19 / 61 / 45 / 166, and
// its tie-break passes take 74 nodes and 352 pivots. The per-pass
// counters must add up to the selection's Search. The serial solver is
// deterministic, so any change to the node order, the entering or
// leaving choices, the pivot arithmetic, the presolve or the rows a
// build emits shows up here. A change that alters the search on purpose
// updates this table and says so. Emitting x ≤ z only for a method alone
// in its (IP, s-call) pair, and x ≤ y only in the tie-break pass, did:
// it replaced 309 / 309 / 8 556 / 241, whose outcomes were 13 / 19 / 63
// / 45 / 169 and whose tie-break passes took 74 nodes and 369 pivots.
// Starting each child's LP at its parent's LP point did: it
// replaced 315 / 315 / 10 075 / 698, whose outcomes were 25 / 20 / 53 /
// 36 / 181 and whose tie-break passes took 80 nodes and 463 pivots.
// Starting the tie-break pass from the area pass's leaves did: it
// left every area pass as it was and replaced 418 / 418 / 14 148 /
// 1 037, whose outcomes were 37 / 56 / 37 / 35 / 253 and whose tie-break
// passes took 183 nodes and 4 536 pivots. Bound propagation in the node
// presolve replaced 568 / 568 / 20 701 / 1 052, whose outcomes were
// 0 / 163 / 47 / 25 / 333, and cut nodes on 17 of the 21 rows. Before
// that the bounded-variable simplex and the per-node presolve replaced
// 566 / 566 / 24 801 (with no flips).
func TestSearchCountersGolden(t *testing.T) {
	type key struct {
		table string
		rg    int64
	}
	golden := map[key][11]int64{
		{"T1", 47740}:    {24, 24, 456, 0, 3, 0, 6, 2, 13, 7, 0},
		{"T1", 95480}:    {17, 17, 290, 5, 1, 0, 7, 2, 7, 6, 0},
		{"T1", 143221}:   {6, 6, 182, 4, 0, 0, 0, 2, 4, 1, 0},
		{"T1", 190961}:   {14, 14, 509, 18, 0, 1, 0, 2, 11, 1, 0},
		{"T1", 238702}:   {27, 27, 770, 16, 1, 0, 10, 2, 14, 6, 1},
		{"T1", 286442}:   {18, 18, 595, 19, 0, 0, 5, 3, 10, 3, 1},
		{"T1", 334182}:   {20, 20, 703, 43, 0, 2, 1, 2, 15, 1, 0},
		{"T1", 381923}:   {26, 26, 859, 51, 0, 5, 1, 2, 18, 1, 0},
		{"T2", 22240}:    {26, 26, 239, 0, 3, 0, 8, 2, 13, 13, 1},
		{"T2", 44481}:    {26, 26, 323, 0, 3, 0, 8, 2, 13, 7, 0},
		{"T2", 111203}:   {17, 17, 186, 5, 1, 0, 7, 2, 7, 6, 0},
		{"T2", 133444}:   {10, 10, 159, 5, 0, 0, 4, 2, 4, 3, 0},
		{"T2", 155684}:   {6, 6, 126, 3, 0, 0, 0, 3, 3, 1, 0},
		{"T2", 177925}:   {6, 6, 222, 8, 0, 0, 0, 3, 3, 1, 8},
		{"T2", 200166}:   {18, 18, 485, 28, 0, 5, 1, 2, 10, 9, 174},
		{"T2", 211286}:   {6, 6, 246, 16, 0, 2, 0, 2, 2, 3, 161},
		{"T3", 12157384}: {8, 8, 70, 2, 0, 0, 1, 2, 5, 1, 0},
		{"T3", 20262307}: {8, 8, 69, 6, 0, 1, 1, 2, 4, 1, 0},
		{"T3", 37195000}: {10, 10, 61, 4, 0, 1, 1, 2, 6, 1, 0},
		{"T3", 37282645}: {6, 6, 42, 5, 0, 1, 0, 2, 3, 1, 0},
		{"T3", 37843700}: {4, 4, 44, 5, 0, 1, 0, 2, 1, 1, 6},
	}
	tables := []struct {
		name string
		gen  func() (*imp.DB, []apps.TableRow, error)
	}{
		{"T1", apps.GSMEncoderTable},
		{"T2", apps.GSMDecoderTable},
		{"T3", apps.JPEGEncoderTable},
	}
	var sum [11]int64
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
			s, tie := sel.Search, sel.Passes[1]
			got := [11]int64{int64(sel.Nodes), s.ColdLPs, s.PrimalPivots, s.BoundFlips,
				s.PresolveInfeasible, s.LPInfeasible, s.BoundPruned, s.Integral, s.Branched,
				tie.ColdLPs, tie.PrimalPivots}
			if got != want {
				t.Errorf("%s RG=%d: nodes/cold LPs/pivots/flips, outcomes, then tie-break nodes/pivots = %v, golden %v", tb.name, row.RG, got, want)
			}
			both := sel.Passes[0]
			both.Add(sel.Passes[1])
			if both != s {
				t.Errorf("%s RG=%d: passes sum to %+v, Search %+v", tb.name, row.RG, both, s)
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
	if want := [11]int64{303, 303, 6636, 243, 12, 19, 61, 45, 166, 74, 352}; sum != want {
		t.Errorf("full pass: nodes/cold LPs/pivots/flips, outcomes, then tie-break nodes/pivots = %v, want %v", sum, want)
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
