package selector

import (
	"context"
	"testing"

	"partita/internal/budget"
	"partita/internal/cdfg"
	"partita/internal/iface"
	"partita/internal/ilp"
	"partita/internal/imp"
)

func sweepDB(t *testing.T) *imp.DB {
	t.Helper()
	a := mkIP("A", 2)
	b := mkIP("B", 5)
	c := mkIP("C", 9)
	db, err := imp.NewSyntheticDB([]string{"f1", "f2", "f3"}, []imp.SynthIMP{
		{SC: 1, IP: a, Type: iface.Type0, Gain: 100, IfaceArea: 0.5},
		{SC: 2, IP: b, Type: iface.Type0, Gain: 300, IfaceArea: 0.5},
		{SC: 3, IP: c, Type: iface.Type0, Gain: 700, IfaceArea: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestMaxReachableGain(t *testing.T) {
	db := sweepDB(t)
	if got := MaxReachableGain(db); got != 1100 {
		t.Errorf("MaxReachableGain = %d, want 1100", got)
	}
}

func TestSweepShape(t *testing.T) {
	db := sweepDB(t)
	points, err := NewAnalysis(db).SweepPoints(context.Background(), 10, budget.Budget{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 10 {
		t.Fatalf("points = %d", len(points))
	}
	prevArea := -1.0
	for _, p := range points {
		if p.Sel.Status != ilp.Optimal {
			t.Fatalf("RG=%d infeasible", p.Required)
		}
		if p.Sel.Gain < p.Required {
			t.Errorf("RG=%d: gain %d below requirement", p.Required, p.Sel.Gain)
		}
		if p.Sel.Area < prevArea-1e-9 {
			t.Errorf("area decreased along the sweep at RG=%d", p.Required)
		}
		prevArea = p.Sel.Area
	}
	// The final point must use everything.
	last := points[len(points)-1]
	if last.Sel.Gain != 1100 {
		t.Errorf("final gain = %d, want 1100", last.Sel.Gain)
	}
}

func TestMaxReachablePerPath(t *testing.T) {
	db := sweepDB(t)
	// Split the three s-calls over two paths: {f1, f2} and {f3}.
	db.Paths = [][]*cdfg.Node{
		{db.SCalls[0].Sites[0], db.SCalls[1].Sites[0]},
		{db.SCalls[2].Sites[0]},
	}
	pp := MaxReachablePerPath(db)
	if len(pp) != 2 || pp[0] != 400 || pp[1] != 700 {
		t.Errorf("per-path = %v, want [400 700]", pp)
	}
	// A uniform requirement above the weakest path must be infeasible.
	sel, err := Solve(Problem{DB: db, Required: 500})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Status != ilp.Infeasible {
		t.Errorf("status %v, want infeasible (path 0 tops out at 400)", sel.Status)
	}
}

func TestParetoFront(t *testing.T) {
	db := sweepDB(t)
	points, err := NewAnalysis(db).SweepPoints(context.Background(), 12, budget.Budget{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	front := ParetoFront(points)
	if len(front) == 0 {
		t.Fatal("empty frontier")
	}
	// Strictly increasing in both area and gain.
	for i := 1; i < len(front); i++ {
		if front[i].Sel.Area <= front[i-1].Sel.Area {
			t.Errorf("frontier area not increasing at %d", i)
		}
		if front[i].Sel.Gain <= front[i-1].Sel.Gain {
			t.Errorf("frontier gain not increasing at %d", i)
		}
	}
	// No sweep point may dominate a frontier point.
	for _, p := range points {
		if p.Sel.Status != ilp.Optimal {
			continue
		}
		for _, f := range front {
			if p.Sel.Area < f.Sel.Area-1e-9 && p.Sel.Gain > f.Sel.Gain {
				t.Errorf("frontier point (A=%.1f G=%d) dominated by (A=%.1f G=%d)",
					f.Sel.Area, f.Sel.Gain, p.Sel.Area, p.Sel.Gain)
			}
		}
	}
}
