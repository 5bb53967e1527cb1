package main

import (
	"context"
	"strings"
	"testing"

	"partita/internal/imp"
	"partita/internal/selector"
)

// TestOracleReproducesGoldenRows re-derives the A and G columns of all
// 21 published rows of Tables 1-3 from the selector's chosen methods.
func TestOracleReproducesGoldenRows(t *testing.T) {
	var analysisMs []float64
	insts, err := tableInstances(&analysisMs)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 21 {
		t.Fatalf("%d golden rows, want 21", len(insts))
	}
	for _, in := range insts {
		sel, err := in.an.Solve(context.Background(), selector.Problem{Required: in.rg})
		if err != nil {
			t.Fatal(err)
		}
		d, err := derive(in.db, sel.Chosen, in.rg, nil)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if !sameArea(d.Area, in.want.Area) || d.Gain != in.want.Gain {
			t.Errorf("%s: oracle derives A=%v G=%d, the paper's row says A=%v G=%d", in.name, d.Area, d.Gain, in.want.Area, in.want.Gain)
		}
		if _, err := verify(in.db, in.rg, nil, claimOf(sel), in.want); err != nil {
			t.Errorf("%s: %v", in.name, err)
		} else if err := in.check(sel, d); err != nil {
			t.Errorf("%s: %v", in.name, err)
		}
	}
}

// TestOracleRejectsCorruptedAnswers corrupts a correct answer in each
// way a solver bug could, and requires the oracle to count it failed.
func TestOracleRejectsCorruptedAnswers(t *testing.T) {
	var analysisMs []float64
	insts, err := tableInstances(&analysisMs)
	if err != nil {
		t.Fatal(err)
	}
	in := insts[7] // T1 RG=381923, the table's largest selection (S=6, O=11)
	sel, err := in.an.Solve(context.Background(), selector.Problem{Required: in.rg})
	if err != nil {
		t.Fatal(err)
	}
	good := claimOf(sel)
	if _, err := verify(in.db, in.rg, nil, good, in.want); err != nil {
		t.Fatalf("the uncorrupted answer fails: %v", err)
	}
	sibling := func(m *imp.IMP) *imp.IMP {
		for _, o := range in.db.IMPs {
			if o.SC == m.SC && o != m {
				return o
			}
		}
		return nil
	}
	without := func(k int) []*imp.IMP {
		return append(append([]*imp.IMP(nil), good.Chosen[:k]...), good.Chosen[k+1:]...)
	}
	cases := []struct {
		name, want string
		c          claim
	}{
		{"area misreported", "reported area", claim{Status: "optimal", Chosen: good.Chosen, Area: good.Area + 0.5, Gain: good.Gain}},
		{"gain misreported", "reported gain", claim{Status: "optimal", Chosen: good.Chosen, Area: good.Area, Gain: good.Gain + 1}},
		{"method dropped", "below the required", claim{Status: "optimal", Chosen: without(0), Area: good.Area, Gain: good.Gain}},
		{"two methods on one s-call", "two methods", claim{Status: "optimal", Chosen: append(good.Chosen[:len(good.Chosen):len(good.Chosen)], sibling(good.Chosen[0])), Area: good.Area, Gain: good.Gain}},
		{"wrong status", "status", claim{Status: "infeasible"}},
	}
	for _, c := range cases {
		_, err := verify(in.db, in.rg, nil, c.c, in.want)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: verify = %v, want an error mentioning %q", c.name, err, c.want)
		}
	}

	// A cheaper answer than the reference is wrong too, even when it is
	// internally consistent: the reference area is the proven optimum.
	worse := in.want
	worse.Area -= 1
	if _, err := verify(in.db, in.rg, nil, good, worse); err == nil {
		t.Error("an answer that disagrees with the reference area passed")
	}

	// Serial and parallel solves sum areas in different orders; the
	// oracle must not fail an answer on the last bits.
	if !sameArea(31.9, 31.899999999999995) || sameArea(31.9, 31.8) {
		t.Error("sameArea does not compare at 1e-6 relative tolerance")
	}
}

// TestOracleChecksConflicts chooses a parallel-code method together with
// a hardware method of the s-call whose software body it overlaps, a
// Problem-2 conflict pair, and requires the oracle to reject it.
func TestOracleChecksConflicts(t *testing.T) {
	db, err := scaledModel(1000, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range db.IMPs {
		if len(m.PCSCalls) == 0 {
			continue
		}
		for _, o := range db.IMPs {
			if o.SC.Sites[0] == m.PCSCalls[0] {
				_, err := derive(db, []*imp.IMP{m, o}, 0, nil)
				if err == nil || !strings.Contains(err.Error(), "software body") {
					t.Fatalf("conflicting pair %s + %s: derive = %v", m.ID, o.ID, err)
				}
				return
			}
		}
	}
	t.Fatal("the model has no conflict pair")
}
