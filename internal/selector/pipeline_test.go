package selector

import (
	"context"
	"math"
	"reflect"
	"testing"

	"partita/internal/apps"
	"partita/internal/budget"
	"partita/internal/ilp"
)

// TestPipelineMatchesIndependentSolves is the pipeline's core soundness
// property: reuse and propagation are accelerations, not
// approximations, so every point must equal an independent exact solve.
func TestPipelineMatchesIndependentSolves(t *testing.T) {
	db := sweepDB(t)
	gains := []int64{50, 100, 150, 400, 700, 800, 1100, 1200}
	pl := NewAnalysis(db).NewPipeline(gains, budget.Budget{}, nil)
	ctx := context.Background()
	for k := 0; ; k++ {
		pt, ok, err := pl.Next(ctx)
		if !ok {
			if k != len(gains) {
				t.Fatalf("pipeline exhausted after %d points, want %d", k, len(gains))
			}
			break
		}
		if err != nil {
			t.Fatalf("point %d: %v", k, err)
		}
		if pt.Index != k || pt.Required != gains[k] {
			t.Fatalf("point %d: index %d rg %d", k, pt.Index, pt.Required)
		}
		ref, err := SolveCtx(ctx, Problem{DB: db, Required: gains[k]})
		if err != nil {
			t.Fatal(err)
		}
		if pt.Sel.Status != ref.Status || pt.Sel.Gain != ref.Gain ||
			math.Abs(pt.Sel.Area-ref.Area) > 1e-9 {
			t.Errorf("rg=%d: pipeline (%v gain=%d area=%g) != independent (%v gain=%d area=%g)",
				gains[k], pt.Sel.Status, pt.Sel.Gain, pt.Sel.Area,
				ref.Status, ref.Gain, ref.Area)
		}
		if pt.Sel.Status == ilp.Optimal &&
			(pt.Sel.SInstructions != ref.SInstructions ||
				pt.Sel.SCallsImplemented != ref.SCallsImplemented ||
				!reflect.DeepEqual(pt.Sel.PathGains, ref.PathGains)) {
			t.Errorf("rg=%d: pipeline tie-break columns differ from independent solve", gains[k])
		}
	}
}

// TestPipelinePlateauReuse: the sweep curve is a step function, so
// consecutive points on one plateau must complete with zero solver work
// and hand back the donor's selection.
func TestPipelinePlateauReuse(t *testing.T) {
	db := sweepDB(t)
	// IMP gains are 100/300/700: rg 50 and 100 share the A-only optimum,
	// 150..400 share A+B, so at most 3 distinct solves cover 6 points.
	gains := []int64{50, 100, 150, 200, 300, 400}
	pl := NewAnalysis(db).NewPipeline(gains, budget.Budget{}, nil)
	ctx := context.Background()
	var pts []Point
	for {
		pt, ok, err := pl.Next(ctx)
		if !ok {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, pt)
	}
	// Three solves cover the six points, and no point is seeded.
	if st, want := pl.Stats(), (PipelineStats{Solved: 3, Reused: 3}); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	// Reused points carry the donor's optimum and report zero search.
	for _, pt := range pts {
		if !pt.Reused {
			continue
		}
		if pt.Sel.Status != ilp.Optimal {
			t.Errorf("rg=%d reused with status %v", pt.Required, pt.Sel.Status)
		}
		if pt.Sel.Nodes != 0 {
			t.Errorf("rg=%d reused but reports %d search nodes", pt.Required, pt.Sel.Nodes)
		}
		if pt.Sel.Search != (ilp.SearchStats{}) || pt.Sel.Passes != [2]ilp.SearchStats{} {
			t.Errorf("rg=%d reused but reports search counters %+v, per pass %+v", pt.Required, pt.Sel.Search, pt.Sel.Passes)
		}
		if !meetsUniform(pt.Sel, pt.Required) {
			t.Errorf("rg=%d reused selection does not meet the requirement", pt.Required)
		}
	}
}

// TestPipelineInfeasibilityPropagation: one infeasible point proves
// every tighter one infeasible without another search.
func TestPipelineInfeasibilityPropagation(t *testing.T) {
	db := sweepDB(t) // max reachable gain 1100
	gains := []int64{1100, 1200, 1300, 1400}
	pl := NewAnalysis(db).NewPipeline(gains, budget.Budget{}, nil)
	ctx := context.Background()
	var statuses []ilp.Status
	var reused []bool
	for {
		pt, ok, err := pl.Next(ctx)
		if !ok {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		statuses = append(statuses, pt.Sel.Status)
		reused = append(reused, pt.Reused)
	}
	want := []ilp.Status{ilp.Optimal, ilp.Infeasible, ilp.Infeasible, ilp.Infeasible}
	if !reflect.DeepEqual(statuses, want) {
		t.Fatalf("statuses %v, want %v", statuses, want)
	}
	// 1200 is the first infeasible point and must be solved; 1300 and
	// 1400 follow from it.
	if reused[1] || !reused[2] || !reused[3] {
		t.Errorf("reuse pattern %v, want [false false true true]", reused)
	}
	if st, want := pl.Stats(), (PipelineStats{Solved: 2, Reused: 2}); st != want {
		t.Errorf("stats %+v, want %+v", st, want)
	}
}

// TestPipelineIsLazy: Next solves one point at a time — building the
// pipeline and pulling a single point must not touch the rest.
func TestPipelineIsLazy(t *testing.T) {
	db := sweepDB(t)
	pl := NewAnalysis(db).NewPipeline([]int64{100, 400, 700, 1100}, budget.Budget{}, nil)
	if pl.Len() != 4 {
		t.Fatalf("Len = %d", pl.Len())
	}
	if st := pl.Stats(); st.Solved+st.Reused != 0 {
		t.Fatalf("work before first Next: %+v", st)
	}
	if _, ok, err := pl.Next(context.Background()); !ok || err != nil {
		t.Fatalf("first Next: ok=%v err=%v", ok, err)
	}
	if st := pl.Stats(); st.Solved+st.Reused != 1 {
		t.Fatalf("first Next disposed %d points, want 1: %+v", st.Solved+st.Reused, st)
	}
}

// TestPipelineObserverTagsPointIndex: incumbents stream with the index
// of the point whose solve produced them.
func TestPipelineObserverTagsPointIndex(t *testing.T) {
	db := sweepDB(t)
	gains := []int64{100, 1100}
	seen := map[int]int{}
	pl := NewAnalysis(db).NewPipeline(gains, budget.Budget{}, func(i int, in Incumbent) {
		if in.Area <= 0 {
			t.Errorf("incumbent with area %g", in.Area)
		}
		seen[i]++
	})
	ctx := context.Background()
	for {
		_, ok, err := pl.Next(ctx)
		if !ok {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range seen {
		if i < 0 || i >= len(gains) {
			t.Errorf("observer saw out-of-range point index %d", i)
		}
	}
}

// TestAnalysisSharedAcrossPipelines: one Analysis serves many pipelines
// and direct solves concurrently without interference.
func TestAnalysisSharedAcrossPipelines(t *testing.T) {
	db := sweepDB(t)
	an := NewAnalysis(db)
	if an.MaxGain() != MaxReachableGain(db) {
		t.Fatalf("MaxGain = %d", an.MaxGain())
	}
	ctx := context.Background()
	ref, err := an.Solve(ctx, Problem{Required: 400})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 3)
	for w := 0; w < 3; w++ {
		go func() {
			pl := an.NewPipeline([]int64{200, 400, 900}, budget.Budget{}, nil)
			for {
				pt, ok, err := pl.Next(ctx)
				if !ok {
					done <- nil
					return
				}
				if err != nil {
					done <- err
					return
				}
				if pt.Required == 400 && math.Abs(pt.Sel.Area-ref.Area) > 1e-9 {
					t.Errorf("rg=400 area %g != reference %g", pt.Sel.Area, ref.Area)
				}
			}
		}()
	}
	for w := 0; w < 3; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelSweepNodesMatchSerial pins that the deprecated
// Budget.Parallelism does not reach the sweep pipeline: a sweep at
// Parallelism 4 must produce the curve of a Parallelism 1 sweep with
// the same node count at every point, since both run the one serial
// branch and bound. Area compares with a float tolerance: its sum may
// differ in the last ulp.
func TestParallelSweepNodesMatchSerial(t *testing.T) {
	db, _, err := apps.GSMEncoderTable()
	if err != nil {
		t.Fatal(err)
	}
	an := NewAnalysis(db)
	ctx := context.Background()
	serial, err := an.SweepPoints(ctx, 16, budget.Budget{Parallelism: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := an.SweepPoints(ctx, 16, budget.Budget{Parallelism: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(serial) {
		t.Fatalf("parallelism=4 sweep has %d points, parallelism=1 %d", len(par), len(serial))
	}
	for i := range serial {
		if serial[i].Required != par[i].Required ||
			serial[i].Sel.Status != par[i].Sel.Status ||
			math.Abs(serial[i].Sel.Area-par[i].Sel.Area) > 1e-9 ||
			serial[i].Sel.Gain != par[i].Sel.Gain ||
			serial[i].Sel.Nodes != par[i].Sel.Nodes {
			t.Errorf("point %d: parallelism=4 %+v, parallelism=1 %+v",
				i, par[i].Sel, serial[i].Sel)
		}
	}
}
