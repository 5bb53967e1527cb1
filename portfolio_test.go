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

// TestReselectFloorsOnlyFromOwnOptimum: Reselect may carry a proven
// optimum over as an area floor only from prev's own solve, under
// prev's own requirement. On the live GSM encoder, a Warm selection
// proven at 50% of reachable gain and a 50% parent re-solved with
// every path's requirement overridden to 10% must both settle on the
// 10% optimum that SelectCtx and SelectPerPathCtx prove, not at the
// 50% optimum's area.
func TestReselectFloorsOnlyFromOwnOptimum(t *testing.T) {
	ctx := context.Background()
	d, _ := liveDesign(t, apps.GSMEncoderWorkload)
	max := d.MaxReachableGain()
	rg10, rg50 := max*10/100, max*50/100
	warm, err := d.SelectCtx(ctx, rg50, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	parent, err := d.SelectPortfolio(ctx, rg50, PortfolioOptions{})
	if err != nil {
		t.Fatal(err)
	}
	perPath := make([]int64, len(d.DB.Paths))
	for k := range perPath {
		perPath[k] = rg10
	}
	ref, err := d.SelectCtx(ctx, rg10, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	refPerPath, err := d.SelectPerPathCtx(ctx, rg50, perPath, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Exact() || !parent.Sel.Exact() || warm.Area <= ref.Area {
		t.Fatalf("the 50%% optimum (area %v, %v) must be proven and above the 10%% one (%v) for this test to mean anything",
			warm.Area, warm.Status, ref.Area)
	}
	for _, tc := range []struct {
		name string
		run  func() (*PortfolioResult, error)
		ref  *Selection
	}{
		{"warm", func() (*PortfolioResult, error) {
			return d.Reselect(ctx, nil, Delta{Required: &rg10}, PortfolioOptions{Warm: warm})
		}, ref},
		{"per-path override", func() (*PortfolioResult, error) {
			return d.Reselect(ctx, parent, Delta{}, PortfolioOptions{PerPath: perPath})
		}, refPerPath},
	} {
		res, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !res.Seeded {
			t.Errorf("%s: race not marked Seeded", tc.name)
		}
		if diff := sameAnswer(res.Sel, tc.ref); diff != "" {
			t.Errorf("%s: Reselect %s\n  reselect %v area %v gain %d\n  exact    %v area %v gain %d",
				tc.name, diff, res.Sel.Status, res.Sel.Area, res.Sel.Gain, tc.ref.Status, tc.ref.Area, tc.ref.Gain)
		}
	}
}
