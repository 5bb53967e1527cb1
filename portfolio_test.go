package partita

// The racing portfolio is an acceleration, not an approximation: at
// gap 0 it settles on the exact solver's selection, and an incremental
// Reselect settles on what a cold solve of the edited problem finds.

import (
	"context"
	"math"
	"testing"

	"partita/internal/apps"
)

// liveDesign analyzes a bundled workload through the public API.
func liveDesign(t *testing.T, gen func() (apps.Workload, error)) (*Design, apps.Workload) {
	t.Helper()
	w, err := gen()
	if err != nil {
		t.Fatal(err)
	}
	d, err := Analyze(w.Source, w.Root, w.Catalog, Options{DataCount: w.DataCount})
	if err != nil {
		t.Fatal(err)
	}
	return d, w
}

// sameAnswer reports how got differs from ref, or "" when Status, Gain
// and the chosen implementations match and Area agrees to 1e-6 (its
// float sum may differ in the last bits). Search counters are not
// compared: two ways to the same answer may search differently.
func sameAnswer(got, ref *Selection) string {
	if got.Status != ref.Status || got.Gain != ref.Gain || math.Abs(got.Area-ref.Area) > 1e-6 {
		return "differs in status, gain or area"
	}
	if len(got.Chosen) != len(ref.Chosen) {
		return "chose a different number of implementations"
	}
	for i := range ref.Chosen {
		if got.Chosen[i].ID != ref.Chosen[i].ID {
			return "chose " + got.Chosen[i].ID + " where the reference chose " + ref.Chosen[i].ID
		}
	}
	return ""
}

// TestPortfolioSettlesOnExactSelection races the portfolio at gap 0 on
// the GSM and JPEG encoders at 10–90% of reachable gain and asserts it
// settles on SelectCtx's selection. From each of those answers it then
// edits each chosen IP's area by +5% and asserts that the seeded
// Reselect at gap 0.05 settles on the selection a cold Reselect finds
// on a freshly analyzed design.
func TestPortfolioSettlesOnExactSelection(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		gen  func() (apps.Workload, error)
	}{
		{"gsm", apps.GSMEncoderWorkload},
		{"jpeg", apps.JPEGEncoderWorkload},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, w := liveDesign(t, tc.gen)
			fresh, err := Analyze(w.Source, w.Root, w.Catalog, Options{DataCount: w.DataCount})
			if err != nil {
				t.Fatal(err)
			}
			max := d.MaxReachableGain()
			edits := 0
			for _, pct := range []int64{10, 30, 50, 70, 90} {
				rg := max * pct / 100
				ref, err := d.SelectCtx(ctx, rg, Budget{})
				if err != nil {
					t.Fatalf("RG=%d: %v", rg, err)
				}
				base, err := d.SelectPortfolio(ctx, rg, PortfolioOptions{})
				if err != nil {
					t.Fatalf("RG=%d portfolio: %v", rg, err)
				}
				if diff := sameAnswer(base.Sel, ref); diff != "" {
					t.Errorf("RG=%d: gap-0 portfolio %s\n  portfolio %v area %v gain %d\n  exact     %v area %v gain %d",
						rg, diff, base.Sel.Status, base.Sel.Area, base.Sel.Gain, ref.Status, ref.Area, ref.Gain)
				}

				edited := map[string]bool{}
				for _, m := range base.Sel.Chosen {
					if m.IP == nil || edited[m.IP.ID] {
						continue
					}
					edited[m.IP.ID] = true
					delta := Delta{IPArea: map[string]float64{m.IP.ID: m.IP.Area * 1.05}, Required: &rg}
					seeded, err := d.Reselect(ctx, base, delta, PortfolioOptions{Gap: 0.05})
					if err != nil {
						t.Fatalf("RG=%d, %s area edit: %v", rg, m.IP.ID, err)
					}
					cold, err := fresh.Reselect(ctx, nil, delta, PortfolioOptions{Gap: 0.05})
					if err != nil {
						t.Fatalf("RG=%d, %s area edit, cold: %v", rg, m.IP.ID, err)
					}
					if !seeded.Seeded || cold.Seeded {
						t.Errorf("RG=%d, %s area edit: Seeded %v from prev, %v cold; want true, false", rg, m.IP.ID, seeded.Seeded, cold.Seeded)
					}
					if diff := sameAnswer(seeded.Sel, cold.Sel); diff != "" {
						t.Errorf("RG=%d, %s area edit: seeded Reselect %s\n  seeded %v area %v gain %d\n  cold   %v area %v gain %d",
							rg, m.IP.ID, diff, seeded.Sel.Status, seeded.Sel.Area, seeded.Sel.Gain, cold.Sel.Status, cold.Sel.Area, cold.Sel.Gain)
					}
				}
				edits += len(edited)
			}
			if edits == 0 {
				t.Fatal("no selection uses an IP to edit")
			}
			t.Logf("checked %d single-IP area edits", edits)
		})
	}
}
