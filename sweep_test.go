package partita

import (
	"context"
	"testing"

	"partita/internal/apps"
)

// TestSweepPipelineReusesPlateaus runs a 64-point sweep over the GSM
// and JPEG encoders through the lazy pipeline and as 64 independent
// SelectCtx solves. Every point must get the same answer both ways, the
// pipeline's solved and reused counts and its branch-and-bound node
// total are pinned, and the independent solves must search at least
// 1.5x the pipeline's nodes.
func TestSweepPipelineReusesPlateaus(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name           string
		gen            func() (apps.Workload, error)
		solved, reused int
		nodes          int
	}{
		{"gsm", apps.GSMEncoderWorkload, 17, 47, 333},
		{"jpeg", apps.JPEGEncoderWorkload, 5, 59, 72},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, _ := liveDesign(t, tc.gen)
			const points = 64
			gains := make([]int64, points)
			for i := range gains {
				gains[i] = d.MaxReachableGain() * int64(i+1) / points
			}
			pl := d.NewSweepPipeline(gains, Budget{}, nil)
			var pipelineNodes, independentNodes int
			for {
				pt, ok, err := pl.Next(ctx)
				if !ok {
					break
				}
				if err != nil {
					t.Fatalf("RG=%d: %v", pt.Required, err)
				}
				ref, err := d.SelectCtx(ctx, pt.Required, Budget{})
				if err != nil {
					t.Fatalf("RG=%d independent: %v", pt.Required, err)
				}
				if diff := sameAnswer(pt.Sel, ref); diff != "" {
					t.Errorf("RG=%d (reused %v): pipeline %s", pt.Required, pt.Reused, diff)
				}
				pipelineNodes += pt.Sel.Nodes
				independentNodes += ref.Nodes
			}
			st := pl.Stats()
			if want := (SweepStats{Solved: tc.solved, Reused: tc.reused}); st != want {
				t.Errorf("pipeline stats %+v, want %+v", st, want)
			}
			if pipelineNodes != tc.nodes {
				t.Errorf("pipeline searched %d nodes, want %d", pipelineNodes, tc.nodes)
			}
			if float64(independentNodes) < 1.5*float64(pipelineNodes) {
				t.Errorf("independent solves used %d nodes against the pipeline's %d, want at least 1.5x", independentNodes, pipelineNodes)
			}
			t.Logf("pipeline: %d solved, %d reused, %d nodes; independent: %d nodes", st.Solved, st.Reused, pipelineNodes, independentNodes)
		})
	}
}
