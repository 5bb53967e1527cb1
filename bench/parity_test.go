package main

import (
	"context"
	"os"
	"testing"

	"partita/internal/apps"
	"partita/internal/budget"
	"partita/internal/selector"
)

// The parity reproducers compare the parallel branch-and-bound
// (Parallelism 2) with the serial solver on instances where they have
// been seen to disagree, and fail while they do. They are the hand-off
// to fixing the parallel search, so they run only when asked:
//
//	cd bench && PARTITA_BENCH_PARITY=1 go test -run Parity -v .
//
// The timed workloads run the serial solver, which these reproducers
// treat as the reference.

func parityGate(t *testing.T) {
	if os.Getenv("PARTITA_BENCH_PARITY") == "" {
		t.Skip("set PARTITA_BENCH_PARITY=1 to run the parallel-solver parity reproducers")
	}
}

// TestParityScaledModel solves a scaled-generator model four times the
// size of the timed pool (60 s-calls over 25 IPs: 166 IMPs, 92 conflict
// pairs) 25 times at Parallelism 2. The serial solver proves the
// optimum; the parallel one has reported it infeasible.
func TestParityScaledModel(t *testing.T) {
	parityGate(t)
	db, err := scaledModel(5000, 60, 25)
	if err != nil {
		t.Fatal(err)
	}
	an := selector.NewAnalysis(db)
	rg := an.MaxGain() * 30 / 100
	ref, err := an.Solve(context.Background(), selector.Problem{Required: rg})
	if err != nil {
		t.Fatal(err)
	}
	want := answer{Status: status(ref), Area: ref.Area, Gain: ref.Gain}
	t.Logf("%d IMPs, %d conflict pairs; serial: %+v", len(db.IMPs), len(db.Conflicts), want)
	bad := 0
	for i := 0; i < 25; i++ {
		sel, err := an.Solve(context.Background(), selector.Problem{Required: rg, Budget: budget.Budget{Parallelism: 2}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := verify(db, rg, nil, claimOf(sel), want); err != nil {
			bad++
			t.Logf("solve %d: %v", i, err)
		}
	}
	if bad > 0 {
		t.Errorf("%d of 25 parallel solves disagree with the serial solver", bad)
	}
}

// p2Suspects are explore-pool programs (apps.RandomWorkload seeds) on
// which a Parallelism-2 sweep has answered some point wrongly: a wrong
// "infeasible" or a gain above the minimal one. Seeds 30, 32, and 46 did
// so in 1 to 4 of 150 sweeps; seed 2 once in about 20 000.
var p2Suspects = []int64{2, 30, 32, 46}

// TestParityExploreSweeps runs the explore workload's sweep at
// Parallelism 2 on the suspect programs, 100 times each, against serial
// solves of every point.
func TestParityExploreSweeps(t *testing.T) {
	parityGate(t)
	for _, seed := range p2Suspects {
		w, err := apps.RandomWorkload(seed)
		if err != nil {
			t.Fatal(err)
		}
		db, _, _, _, err := design(w, nil, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		an := selector.NewAnalysis(db)
		gains := sweepGains(an.MaxGain())
		want := make([]answer, len(gains))
		for j, rg := range gains {
			sel, err := an.Solve(context.Background(), selector.Problem{Required: rg})
			if err != nil {
				t.Fatal(err)
			}
			want[j] = answer{Status: status(sel), Area: sel.Area, Gain: sel.Gain}
		}
		bad := 0
		for rep := 0; rep < 100; rep++ {
			j := 0
			err := an.SweepEach(context.Background(), gains, budget.Budget{Parallelism: 2}, nil, func(pt selector.Point) {
				if _, err := verify(db, gains[j], nil, claimOf(pt.Sel), want[j]); err != nil && !pt.Reused {
					bad++
					t.Logf("%s sweep %d point %d: %v", w.Name, rep, j, err)
				}
				j++
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d parallel sweep points disagree with the serial solver", w.Name, bad)
		}
	}
}
