package partita

// Compatibility contract of the deprecated Budget.Parallelism: every
// value runs the one serial branch and bound, so on the paper's example
// models a selection, a sweep, and the Design façade must give results
// identical to the zero budget, down to the chosen implementations and
// the node and LP counters.

import (
	"context"
	"testing"

	"partita/internal/apps"
	"partita/internal/imp"
	"partita/internal/selector"
)

func workloadTables(t *testing.T) map[string]*imp.DB {
	t.Helper()
	dbs := map[string]*imp.DB{}
	for name, gen := range map[string]func() (*imp.DB, []apps.TableRow, error){
		"gsm":  apps.GSMEncoderTable,
		"jpeg": apps.JPEGEncoderTable,
	} {
		db, _, err := gen()
		if err != nil {
			t.Fatalf("%s workload: %v", name, err)
		}
		dbs[name] = db
	}
	return dbs
}

// sameSelection is sameAnswer that also requires the same Nodes and
// Search counters.
func sameSelection(got, ref *selector.Selection) string {
	if got.Nodes != ref.Nodes || got.Search != ref.Search {
		return "differs in search counters"
	}
	return sameAnswer(got, ref)
}

// TestParallelSelectEquivalence solves every published table row of the
// GSM and JPEG encoders with the zero budget and at Parallelism 1, 2, 4
// and -1, and asserts the identical selection each time.
func TestParallelSelectEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		gen  func() (*imp.DB, []apps.TableRow, error)
	}{
		{"gsm", apps.GSMEncoderTable},
		{"jpeg", apps.JPEGEncoderTable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, rows, err := tc.gen()
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range rows {
				ref, err := selector.SolveCtx(ctx, selector.Problem{DB: db, Required: row.RG})
				if err != nil {
					t.Fatalf("RG=%d: %v", row.RG, err)
				}
				for _, p := range []int{1, 2, 4, -1} {
					got, err := selector.SolveCtx(ctx, selector.Problem{
						DB: db, Required: row.RG, Budget: Budget{Parallelism: p},
					})
					if err != nil {
						t.Fatalf("RG=%d parallelism=%d: %v", row.RG, p, err)
					}
					if d := sameSelection(got, ref); d != "" {
						t.Errorf("RG=%d parallelism=%d: %s: status %v, gain %d, area %.9f, %d nodes, %+v; want %v, %d, %.9f, %d nodes, %+v",
							row.RG, p, d, got.Status, got.Gain, got.Area, got.Nodes, got.Search,
							ref.Status, ref.Gain, ref.Area, ref.Nodes, ref.Search)
					}
				}
			}
		})
	}
}

// TestParallelismOneIsSerial is the determinism contract at half the
// reachable gain: Parallelism 1 reproduces the zero budget's exact
// selection — same chosen implementations in the same order, same node
// count — not merely the same objective.
func TestParallelismOneIsSerial(t *testing.T) {
	ctx := context.Background()
	for name, db := range workloadTables(t) {
		rg := selector.MaxReachableGain(db) / 2
		ref, err := selector.SolveCtx(ctx, selector.Problem{DB: db, Required: rg})
		if err != nil {
			t.Fatal(err)
		}
		got, err := selector.SolveCtx(ctx, selector.Problem{
			DB: db, Required: rg, Budget: Budget{Parallelism: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if d := sameSelection(got, ref); d != "" {
			t.Fatalf("%s: parallelism=1 %s: status %v, %d nodes; zero budget status %v, %d nodes",
				name, d, got.Status, got.Nodes, ref.Status, ref.Nodes)
		}
	}
}

// TestParallelSweepEquivalence runs a sweep with the zero budget and at
// Parallelism 4 and asserts the identical trade-off curve.
func TestParallelSweepEquivalence(t *testing.T) {
	ctx := context.Background()
	const points = 12
	for name, db := range workloadTables(t) {
		ref, err := selector.NewAnalysis(db).SweepPoints(ctx, points, Budget{}, nil)
		if err != nil {
			t.Fatalf("%s sweep: %v", name, err)
		}
		got, err := selector.NewAnalysis(db).SweepPoints(ctx, points, Budget{Parallelism: 4}, nil)
		if err != nil {
			t.Fatalf("%s parallelism=4 sweep: %v", name, err)
		}
		if len(got) != len(ref) {
			t.Fatalf("%s: %d points, zero budget %d", name, len(got), len(ref))
		}
		for i := range ref {
			if got[i].Required != ref[i].Required {
				t.Errorf("%s point %d: RG %d, zero budget %d", name, i, got[i].Required, ref[i].Required)
			}
			if d := sameSelection(got[i].Sel, ref[i].Sel); d != "" {
				t.Errorf("%s point %d (RG=%d): parallelism=4 %s", name, i, ref[i].Required, d)
			}
		}
	}
}

// TestParallelSweepObserver threads an observer through a sweep at
// Parallelism 4: it sees the same incumbent events as a zero-budget
// sweep, and every event carries a consistent incumbent (positive node
// count, bound not above area).
func TestParallelSweepObserver(t *testing.T) {
	db, _, err := apps.GSMEncoderTable()
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(bud Budget) []selector.Incumbent {
		var events []selector.Incumbent
		if _, err := selector.NewAnalysis(db).SweepPoints(context.Background(), 8, bud, func(inc selector.Incumbent) {
			events = append(events, inc)
		}); err != nil {
			t.Fatal(err)
		}
		return events
	}
	ref, events := sweep(Budget{}), sweep(Budget{Parallelism: 4})
	if len(events) == 0 {
		t.Fatal("sweep produced no incumbent events")
	}
	if len(events) != len(ref) {
		t.Errorf("parallelism=4 sweep produced %d incumbent events, zero budget %d", len(events), len(ref))
	}
	for _, e := range events {
		if e.Nodes <= 0 {
			t.Errorf("incumbent event with %d nodes", e.Nodes)
		}
		if e.Bound > e.Area+1e-9 {
			t.Errorf("incumbent bound %.9f above area %.9f", e.Bound, e.Area)
		}
	}
}

// TestParallelDesignAPI drives Parallelism through the public Design
// façade the CLI and service use, on the live GSM workload.
func TestParallelDesignAPI(t *testing.T) {
	w, err := apps.GSMEncoderWorkload()
	if err != nil {
		t.Fatal(err)
	}
	d, err := Analyze(w.Source, w.Root, w.Catalog, Options{DataCount: w.DataCount})
	if err != nil {
		t.Fatal(err)
	}
	rg := selector.MaxReachableGain(d.DB) / 2
	ref, err := d.SelectCtx(context.Background(), rg, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.SelectCtx(context.Background(), rg, Budget{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameSelection(got, ref); diff != "" {
		t.Fatalf("Design.SelectCtx at parallelism=4 %s: status %v, gain %d, area %.6f; zero budget status %v, gain %d, area %.6f",
			diff, got.Status, got.Gain, got.Area, ref.Status, ref.Gain, ref.Area)
	}
}
