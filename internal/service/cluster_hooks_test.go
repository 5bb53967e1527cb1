package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"partita/internal/faults"
	"partita/internal/journal"
)

// The RemoteLookup hook is the cluster's cross-node cache path: a peer
// hit must complete the job as cached, memoize locally, and skip the
// solve entirely.
func TestRemoteLookupServesWithoutSolving(t *testing.T) {
	spec := selectSpec(900)
	key, err := ResultKey(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Solve on a plain server to obtain a genuine result to "cache" on
	// the fake peer.
	donor := newTestServer(t, Config{Workers: 1})
	dj, err := donor.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, dj)
	res := dj.Result()
	if res == nil || res.Selection == nil {
		t.Fatalf("donor result = %+v", res)
	}

	var lookups atomic.Int64
	s := newTestServer(t, Config{
		Workers: 1,
		RemoteLookup: func(k string) (*JobResult, bool) {
			lookups.Add(1)
			if k == key {
				return res, true
			}
			return nil, false
		},
	})
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	v := job.View()
	if v.Status != StatusDone || !v.Cached {
		t.Fatalf("peer-served job view = %+v, want done+cached", v)
	}
	if lookups.Load() == 0 {
		t.Fatal("RemoteLookup was never consulted")
	}
	if got := v.Result.Selection.Area; got != res.Selection.Area {
		t.Errorf("peer-served area = %g, want donor's %g", got, res.Selection.Area)
	}
	// The peer hit must be memoized locally: a resubmission is answered
	// at Submit time without consulting the hook again.
	before := lookups.Load()
	job2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !job2.Done() || lookups.Load() != before {
		t.Errorf("resubmission not served from the local cache (done=%v, lookups %d→%d)",
			job2.Done(), before, lookups.Load())
	}
	// No solve ever started on the peer-served node.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "partitad_solves_started_total 0") {
		t.Error("peer-served node reports a started solve")
	}
}

// A lookup miss must fall through to a normal solve.
func TestRemoteLookupMissSolvesLocally(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:      1,
		RemoteLookup: func(string) (*JobResult, bool) { return nil, false },
	})
	job, err := s.Submit(selectSpec(800))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if v := job.View(); v.Status != StatusDone || v.Cached {
		t.Fatalf("view = %+v, want done and not cached", v)
	}
}

// OwnerOf's answer must ride the job view and the journal, and survive
// a replay.
func TestOwnershipRecordedAndReplayed(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "own.wal")
	own := &Ownership{Node: "n2", Owner: "n1", Failover: true}
	s, err := Open(Config{
		Workers:     1,
		JournalPath: wal,
		OwnerOf:     func(string) *Ownership { o := *own; return &o },
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	job, err := s.Submit(selectSpec(700))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if v := job.View(); v.Cluster == nil || *v.Cluster != *own {
		t.Fatalf("live view cluster = %+v, want %+v", v.Cluster, own)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	// The journaled submit record carries the ownership.
	rep, err := journal.ReadAll(wal)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rec := range rep.Records {
		if rec.Type != recSubmit {
			continue
		}
		var d submitData
		if err := json.Unmarshal(rec.Data, &d); err != nil {
			t.Fatal(err)
		}
		if d.Owner != nil && *d.Owner == *own {
			found = true
		}
	}
	if !found {
		t.Fatal("no submit record carries the ownership")
	}

	// A replayed server restores it on the job view.
	s2, err := Open(Config{Workers: 1, JournalPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	defer func() {
		_ = s2.Shutdown(context.Background())
		_ = s2.CloseJournal()
	}()
	j2, ok := s2.Job(job.ID)
	if !ok {
		t.Fatalf("job %s lost across replay", job.ID)
	}
	if v := j2.View(); v.Cluster == nil || *v.Cluster != *own {
		t.Fatalf("replayed view cluster = %+v, want %+v", v.Cluster, own)
	}
}

func TestDeadlineHeaderClampsMemoization(t *testing.T) {
	// A solve clamped to a forwarded caller's deadline must not memoize
	// an unproven outcome: the stall pushes the solve past the inherited
	// 20ms budget, so the anytime result stays out of the cache and an
	// unclamped resubmit really solves.
	inj, err := faults.Parse("seed=7,solver.stall=1,solver.stall.delay=60ms")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 1, Faults: inj})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"kind":"select","source":` + strconv.Quote(testSource) +
		`,"root":"process","requiredGain":700,"catalog":[{"id":"FIR8","name":"f","funcs":["fir"],"inPorts":2,"outPorts":2,"inRate":4,"outRate":4,"latency":8,"pipelined":true,"area":5}]}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(DeadlineHeader, "20")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	var accepted JobView
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	job, ok := s.Job(accepted.ID)
	if !ok {
		t.Fatalf("job %s not tracked", accepted.ID)
	}
	if got := job.Spec.inheritDeadline; got != 20*time.Millisecond {
		t.Fatalf("inherited deadline = %v, want 20ms", got)
	}
	waitDone(t, job)
	jv := job.View()
	if jv.Status != StatusDone {
		t.Fatalf("clamped job: %+v", jv)
	}
	if !job.deadlineClamped {
		t.Fatal("20ms inherited deadline did not clamp the default budget")
	}
	// The memoize gate under a clamp: proven outcomes cache, unproven
	// outcomes do not. Either way the cache must agree with the proof.
	_, cached := s.CachedResult(job.Key)
	if proven := provenOutcome(jv.Result.Selection.Status); cached != proven {
		t.Fatalf("clamped solve memoized=%v but proven=%v (%+v)", cached, proven, jv.Result.Selection)
	}
}

func TestProvenOutcome(t *testing.T) {
	for outcome, want := range map[string]bool{
		"optimal": true, "infeasible": true,
		"feasible": false, "degraded": false, "error": false, "unbounded": false,
	} {
		if got := provenOutcome(outcome); got != want {
			t.Errorf("provenOutcome(%q) = %v, want %v", outcome, got, want)
		}
	}
}

// readyzBody fetches /readyz and decodes the JSON body.
func readyzBody(t *testing.T, s *Server) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	var body map[string]any
	raw, _ := io.ReadAll(rec.Body)
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("readyz body %q: %v", raw, err)
	}
	return rec.Code, body
}

func TestReadyzNamesTheReason(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	code, body := readyzBody(t, s)
	if code != http.StatusOK || body["ready"] != true || body["status"] != "ready" {
		t.Fatalf("ready readyz = %d %v", code, body)
	}
	if _, has := body["reason"]; has {
		t.Errorf("ready body must not carry a reason: %v", body)
	}

	// Leaving the ring is reported before (and instead of) draining.
	s.BeginLeave()
	code, body = readyzBody(t, s)
	if code != http.StatusServiceUnavailable || body["reason"] != ReasonLeavingRing {
		t.Errorf("leaving readyz = %d %v, want 503/%s", code, body, ReasonLeavingRing)
	}
	s.BeginDrain()
	if _, body = readyzBody(t, s); body["reason"] != ReasonLeavingRing {
		t.Errorf("leaving+draining reason = %v, want %s", body["reason"], ReasonLeavingRing)
	}
}

func TestReadyzDrainingReason(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	s.BeginDrain()
	code, body := readyzBody(t, s)
	if code != http.StatusServiceUnavailable || body["reason"] != ReasonDraining || body["ready"] != false {
		t.Errorf("draining readyz = %d %v", code, body)
	}
}

func TestReadyzReplayingReason(t *testing.T) {
	// New (not Open) with a journal path configured: ready is false
	// until Open's replay finishes, which never happens here.
	s := New(Config{Workers: 1, JournalPath: filepath.Join(t.TempDir(), "x.wal")})
	code, body := readyzBody(t, s)
	if code != http.StatusServiceUnavailable || body["reason"] != ReasonReplaying {
		t.Errorf("replaying readyz = %d %v", code, body)
	}
}
