package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func portfolioSpec(rg int64, gap *float64) JobSpec {
	s := selectSpec(rg)
	s.Mode = ModePortfolio
	s.Gap = gap
	return s
}

// TestPortfolioJobMatchesExact: a gap-0 portfolio job settles on the
// exact engine's proven answer — the same area the plain exact job
// reports — and carries per-engine attribution on the wire.
func TestPortfolioJobMatchesExact(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})

	exact, err := s.Submit(selectSpec(1000))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, exact)
	ref := exact.Result().Selection
	if !ref.Solved() {
		t.Fatalf("exact job unsolved: %+v", ref)
	}

	zero := 0.0
	pf, err := s.Submit(portfolioSpec(1000, &zero))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, pf)
	got := pf.Result().Selection
	if got == nil || got.Portfolio == nil {
		t.Fatalf("portfolio job missing attribution: %+v", pf.View())
	}
	if got.Area != ref.Area || got.Gain != ref.Gain || got.Status != ref.Status {
		t.Fatalf("portfolio settled %s/%g/%d, exact %s/%g/%d",
			got.Status, got.Area, got.Gain, ref.Status, ref.Area, ref.Gain)
	}
	info := got.Portfolio
	if info.Engine != "exact" || info.Gap != 0 {
		t.Errorf("settled attribution = %s/%g, want exact/0", info.Engine, info.Gap)
	}
	// Gap 0 accepts only proofs, so the first answer is the settled one
	// and the proof trivially confirms it.
	if !info.Confirmed {
		t.Error("gap-0 portfolio result not confirmed")
	}
	// The two jobs must not share a content address: mode is part of it.
	if pf.Key == exact.Key {
		t.Error("portfolio and exact jobs share a result key")
	}
}

// TestEditEndpointDerivesJob: POST /v1/jobs/{id}/edits derives a
// self-contained portfolio job carrying the parent's history plus the
// new edit, and its settled answer matches a submission of the same
// edited spec without the parent link.
func TestEditEndpointDerivesJob(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	parent, err := s.Submit(selectSpec(1000))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, parent)

	body, _ := json.Marshal(EditRequest{
		Edits: []EditDelta{{IPArea: map[string]float64{"FIR8": 50}}},
	})
	resp, err := http.Post(ts.URL+"/v1/jobs/"+parent.ID+"/edits", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("edit endpoint returned %d: %+v", resp.StatusCode, view)
	}
	child, ok := s.Job(view.ID)
	if !ok {
		t.Fatalf("derived job %s not tracked", view.ID)
	}
	waitDone(t, child)

	if child.Spec.Mode != ModePortfolio || child.Spec.ParentKey != parent.Key || len(child.Spec.Edits) != 1 {
		t.Fatalf("derived spec wrong: mode=%q parent=%q edits=%d",
			child.Spec.Mode, child.Spec.ParentKey, len(child.Spec.Edits))
	}
	got := child.Result().Selection
	if got == nil || got.Portfolio == nil {
		t.Fatalf("derived job missing attribution: %+v", child.View())
	}

	// Cold reference: the same edited spec without the parent link must
	// settle on the same answer (the solve does not read the link).
	cold := child.Spec
	cold.ParentKey = ""
	coldJob, err := s.Submit(cold)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, coldJob)
	ref := coldJob.Result().Selection
	if got.Area != ref.Area || got.Gain != ref.Gain || got.Status != ref.Status {
		t.Fatalf("edit settled %s/%g/%d, cold %s/%g/%d",
			got.Status, got.Area, got.Gain, ref.Status, ref.Area, ref.Gain)
	}
	// And the edit must actually have changed the answer versus the
	// parent (FIR8 got 10x more expensive).
	if parentSel := parent.Result().Selection; parentSel.Area == got.Area {
		for _, c := range got.Chosen {
			if c.IP == "FIR8" {
				t.Errorf("edited job still uses FIR8 at the old area")
			}
		}
	}

	// Chained edit: editing the derived job stacks histories.
	body, _ = json.Marshal(EditRequest{
		Edits: []EditDelta{{IMPGain: map[string]int64{}}, {}},
	})
	resp, err = http.Post(ts.URL+"/v1/jobs/"+child.ID+"/edits", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var chained JobView
	_ = json.NewDecoder(resp.Body).Decode(&chained)
	resp.Body.Close()
	gj, ok := s.Job(chained.ID)
	if !ok {
		t.Fatalf("chained job %s not tracked", chained.ID)
	}
	waitDone(t, gj)
	if len(gj.Spec.Edits) != 3 || gj.Spec.ParentKey != child.Key {
		t.Errorf("chained spec: edits=%d parent=%q, want 3 and the child's key", len(gj.Spec.Edits), gj.Spec.ParentKey)
	}
}

// TestEditEndpointRejections: bad targets and bodies get the right
// status codes.
func TestEditEndpointRejections(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string) int {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post("/v1/jobs/nope/edits", `{"edits":[{}]}`); code != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", code)
	}

	parent, err := s.Submit(selectSpec(1000))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, parent)
	if code := post("/v1/jobs/"+parent.ID+"/edits", `{"edits":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty edits: %d, want 400", code)
	}
	if code := post("/v1/jobs/"+parent.ID+"/edits", `{"edits":[{"required":-5}]}`); code != http.StatusBadRequest {
		t.Errorf("negative required: %d, want 400", code)
	}

	sweep := selectSpec(0)
	sweep.Kind = KindSweep
	sj, err := s.Submit(sweep)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sj)
	if code := post("/v1/jobs/"+sj.ID+"/edits", `{"edits":[{}]}`); code != http.StatusBadRequest {
		t.Errorf("sweep parent: %d, want 400", code)
	}
}

// TestPortfolioSpecValidation: the mode/gap/edits field rules.
func TestPortfolioSpecValidation(t *testing.T) {
	bad := 1.5
	neg := -0.1
	cases := []struct {
		name string
		mut  func(*JobSpec)
	}{
		{"gap without mode", func(s *JobSpec) { s.Mode = ""; v := 0.1; s.Gap = &v }},
		{"edits without mode", func(s *JobSpec) { s.Mode = ""; s.Edits = []EditDelta{{}} }},
		{"parent without mode", func(s *JobSpec) { s.Mode = ""; s.ParentKey = "abc" }},
		{"unknown mode", func(s *JobSpec) { s.Mode = "races" }},
		{"portfolio sweep", func(s *JobSpec) { s.Kind = KindSweep; s.RequiredGain = 0 }},
		{"gap too large", func(s *JobSpec) { s.Gap = &bad }},
		{"gap negative", func(s *JobSpec) { s.Gap = &neg }},
		{"negative edit area", func(s *JobSpec) { s.Edits = []EditDelta{{IPArea: map[string]float64{"X": -1}}} }},
		{"negative edit gain", func(s *JobSpec) { s.Edits = []EditDelta{{IMPGain: map[string]int64{"m": -2}}} }},
	}
	for _, tc := range cases {
		spec := portfolioSpec(100, nil)
		tc.mut(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, spec)
		}
	}
	ok := portfolioSpec(100, nil)
	if err := ok.Validate(); err != nil {
		t.Errorf("valid portfolio spec rejected: %v", err)
	}
}

// TestPortfolioResultKeyDistinguishes: mode, gap, edits, and parent all
// reach the content address, and identical derived specs coalesce.
func TestPortfolioResultKeyDistinguishes(t *testing.T) {
	base := portfolioSpec(1000, nil)
	k1, err := ResultKey(base)
	if err != nil {
		t.Fatal(err)
	}
	keyOf := func(mut func(*JobSpec)) string {
		s := portfolioSpec(1000, nil)
		mut(&s)
		k, err := ResultKey(s)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	if k2 := keyOf(func(s *JobSpec) {}); k2 != k1 {
		t.Error("identical portfolio specs hash differently")
	}
	distinct := map[string]string{
		"gap":    keyOf(func(s *JobSpec) { v := 0.1; s.Gap = &v }),
		"edits":  keyOf(func(s *JobSpec) { s.Edits = []EditDelta{{IPArea: map[string]float64{"FIR8": 9}}} }),
		"parent": keyOf(func(s *JobSpec) { s.ParentKey = "deadbeef" }),
		"exact":  func() string { k, _ := ResultKey(selectSpec(1000)); return k }(),
	}
	for name, k := range distinct {
		if k == k1 {
			t.Errorf("%s variant shares the base content address", name)
		}
	}
}

// TestPortfolioMetricsRendered: a completed portfolio job shows up in
// the wins counter and the first-acceptable histogram on /metrics.
func TestPortfolioMetricsRendered(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	job, err := s.Submit(portfolioSpec(1000, nil))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	text := rec.Body.String()
	if !strings.Contains(text, "partitad_portfolio_wins_total{engine=") {
		t.Error("metrics missing partitad_portfolio_wins_total")
	}
	if !strings.Contains(text, "partitad_portfolio_first_acceptable_seconds_count 1") {
		t.Errorf("metrics missing the first-acceptable histogram:\n%s", text)
	}
}
