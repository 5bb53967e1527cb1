package client

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"partita/internal/service"
)

// TestRunPortfolioEndToEnd: RunPortfolio forces portfolio mode, the
// result carries per-engine attribution, and with gap 0 the settled
// answer matches the plain exact solve.
func TestRunPortfolioEndToEnd(t *testing.T) {
	_, ts := newDaemon(t, service.Config{Workers: 2})
	c := New(ts.URL, WithJitterSeed(1))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	ref, err := c.Run(ctx, selectSpec(1000))
	if err != nil {
		t.Fatal(err)
	}

	spec := selectSpec(1000)
	zero := 0.0
	spec.Gap = &zero
	v, err := c.RunPortfolio(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusDone || !v.Result.Selection.Solved() {
		t.Fatalf("portfolio run: %+v", v)
	}
	info := v.Result.Selection.Portfolio
	if info == nil {
		t.Fatal("portfolio result missing attribution")
	}
	if info.Engine != "exact" || info.Gap != 0 || !info.Confirmed {
		t.Errorf("attribution = %+v, want proven exact", info)
	}
	if v.Result.Selection.Area != ref.Result.Selection.Area {
		t.Errorf("portfolio area %g, exact %g", v.Result.Selection.Area, ref.Result.Selection.Area)
	}
}

// TestEditWorkflow: solve, edit, chain another edit — each derived job
// is a portfolio solve whose spec carries the full history, and editing
// an unknown job is a clean 404.
func TestEditWorkflow(t *testing.T) {
	srv, ts := newDaemon(t, service.Config{Workers: 2})
	c := New(ts.URL, WithJitterSeed(2))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	base, err := c.Run(ctx, selectSpec(1000))
	if err != nil {
		t.Fatal(err)
	}

	v, err := c.EditAndWait(ctx, base.ID, EditRequest{
		Edits: []EditDelta{{IPArea: map[string]float64{"FIR8": 50}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusDone {
		t.Fatalf("edit job: %+v", v)
	}
	sel := v.Result.Selection
	if sel == nil || sel.Portfolio == nil {
		t.Fatalf("edit result missing attribution: %+v", v)
	}
	job, ok := srv.Job(v.ID)
	if !ok || job.Spec.Mode != ModePortfolio || job.Spec.ParentKey == "" {
		t.Fatalf("derived spec wrong: %+v", job.Spec)
	}

	// Chain a second edit off the derived job.
	rq := int64(500)
	v2, err := c.EditAndWait(ctx, v.ID, EditRequest{Edits: []EditDelta{{Required: &rq}}})
	if err != nil {
		t.Fatal(err)
	}
	if v2.Status != StatusDone {
		t.Fatalf("chained edit: %+v", v2)
	}
	if j2, _ := srv.Job(v2.ID); len(j2.Spec.Edits) != 2 {
		t.Errorf("chained spec carries %d edits, want 2", len(j2.Spec.Edits))
	}

	var apiErr *APIError
	if _, err := c.Edit(ctx, "nope", EditRequest{Edits: []EditDelta{{}}}); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("editing an unknown job: %v, want 404", err)
	}
}
