package service

// In-process chaos coverage: crash-journal recovery, fault injection,
// and drain behavior. The full kill-and-restart test (real SIGKILL of a
// real daemon) lives in the client package's chaos test, gated behind
// PARTITAD_CHAOS=1; everything here runs in tier-1.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"partita/internal/faults"
	"partita/internal/journal"
)

func mustInjector(t *testing.T, spec string) *faults.Injector {
	t.Helper()
	inj, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// openTestServer is newTestServer for journaled servers built with Open.
func openTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		_ = s.CloseJournal()
	})
	return s
}

func TestCrashRecoveryRestoresAndRequeues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")

	// Phase 1: a healthy daemon journals five finished jobs, then exits
	// cleanly.
	s1, err := Open(Config{Workers: 2, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	type finished struct {
		id   string
		spec JobSpec
		view JobView
	}
	var done []finished
	for i := 0; i < 5; i++ {
		job, err := s1.Submit(selectSpec(int64(1000 + i)))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job)
		done = append(done, finished{job.ID, job.Spec, job.View()})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s1.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: simulate a daemon that accepted 15 more jobs — one
	// mid-solve with a journaled incumbent checkpoint — and was then
	// SIGKILLed mid-append (torn tail).
	jnl, _, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const ckptArea = 1e9
	var pendingIDs []string
	for i := 0; i < 15; i++ {
		spec := selectSpec(int64(3000 + i))
		key, err := spec.resultKey()
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("j%06d", 100+i)
		pendingIDs = append(pendingIDs, id)
		if _, err := jnl.Append(recSubmit, id, submitData{ID: id, Key: key, Spec: spec}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if _, err := jnl.Append(recRunning, id, nil); err != nil {
				t.Fatal(err)
			}
			ck := Progress{IncumbentArea: ckptArea, Bound: -1, Gap: -1, Nodes: 3, Incumbents: 1}
			if _, err := jnl.Append(recCheckpoint, id, ck); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A torn frame: the header promises 64 payload bytes, three arrive.
	if _, err := f.Write([]byte{64, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Phase 3: recovery. Finished jobs come back with results, the torn
	// tail is repaired, pending jobs re-run to completion.
	s2 := openTestServer(t, Config{Workers: 2, JournalPath: path})
	rec := s2.Recovery()
	if !rec.Enabled || rec.JobsRestored != 5 || rec.JobsRequeued != 15 {
		t.Fatalf("recovery stats: %+v", rec)
	}
	if rec.TruncatedBytes == 0 {
		t.Errorf("torn tail not detected: %+v", rec)
	}

	for _, fin := range done {
		job, ok := s2.Job(fin.id)
		if !ok {
			t.Fatalf("finished job %s lost in recovery", fin.id)
		}
		v := job.View()
		if v.Status != StatusDone || !v.Recovered {
			t.Fatalf("restored job %s: %+v", fin.id, v)
		}
		if !reflect.DeepEqual(v.Result, fin.view.Result) {
			t.Errorf("restored result differs for %s:\nbefore: %+v\nafter:  %+v", fin.id, fin.view.Result, v.Result)
		}
	}

	for i, id := range pendingIDs {
		job, ok := s2.Job(id)
		if !ok {
			t.Fatalf("accepted job %s lost in recovery", id)
		}
		waitDone(t, job)
		v := job.View()
		if v.Status != StatusDone || !v.Recovered {
			t.Fatalf("requeued job %s: %+v", id, v)
		}
		if !v.Result.Selection.Solved() {
			t.Fatalf("requeued job %s unsolved: %+v", id, v.Result.Selection)
		}
		if i == 0 && v.Result.Selection.Area > ckptArea {
			t.Errorf("recovered incumbent worse than last checkpoint: %g > %g",
				v.Result.Selection.Area, float64(ckptArea))
		}
	}

	// The result cache was restored: resubmitting a finished spec is
	// answered immediately.
	hit, err := s2.Submit(done[0].spec)
	if err != nil {
		t.Fatal(err)
	}
	if v := hit.View(); v.Status != StatusDone || !v.Cached {
		t.Errorf("restored result cache missed: %+v", v)
	}
}

func TestRecoveryFromEmptyAndMissingJournal(t *testing.T) {
	dir := t.TempDir()
	// Missing file: a fresh journal.
	s := openTestServer(t, Config{Workers: 1, JournalPath: filepath.Join(dir, "fresh")})
	if rec := s.Recovery(); rec.RecordsReplayed != 0 || rec.JobsRequeued != 0 {
		t.Fatalf("fresh journal recovery: %+v", rec)
	}
	job, err := s.Submit(selectSpec(500))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)

	// Zero-length file: equally fresh.
	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openTestServer(t, Config{Workers: 1, JournalPath: empty})
	if rec := s2.Recovery(); rec.RecordsReplayed != 0 || rec.Corrupt {
		t.Fatalf("zero-length journal recovery: %+v", rec)
	}
}

func TestJournalCompactedOnRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	s1, err := Open(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	for i := 0; i < 4; i++ {
		job, err := s1.Submit(selectSpec(int64(100 + i)))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s1.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	before, err := journal.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}

	s2 := openTestServer(t, Config{Workers: 1, JournalPath: path})
	_ = s2
	after, err := journal.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	// Replay compaction drops running/checkpoint noise: only submit +
	// final records survive (2 per job).
	if len(after.Records) != 8 {
		t.Errorf("compacted journal has %d records, want 8 (was %d)", len(after.Records), len(before.Records))
	}
	if len(after.Records) >= len(before.Records) {
		t.Errorf("compaction did not shrink the journal: %d -> %d", len(before.Records), len(after.Records))
	}
	for _, r := range after.Records {
		if r.Type != recSubmit && r.Type != recDone && r.Type != recFailed {
			t.Errorf("dead record type %q survived compaction", r.Type)
		}
	}
}

// TestLiveCompactionsReplay: with a compaction every three appends, a
// journaled server rewrites its log several times while it finishes
// solved, cache-hit, failed, portfolio and batch jobs, encoding each
// record from the job's own fields. After a restart every job comes back
// with the status, key, cached flag, error and result JSON it had before.
func TestLiveCompactionsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	s1, err := Open(Config{Workers: 1, JournalPath: path, CompactEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	var jobs []*Job
	submit := func(spec JobSpec) {
		t.Helper()
		job, err := s1.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job)
		jobs = append(jobs, job)
	}
	zero := 0.0
	for i := int64(0); i < 3; i++ {
		submit(selectSpec(1000 + 500*i))
		submit(selectSpec(1000 + 500*i))
		submit(portfolioSpec(1200+500*i, &zero))
		failing := selectSpec(1000 + i)
		failing.Root = "nosuch"
		submit(failing)
	}
	b, err := s1.SubmitBatch(batchSpec(700, 900, 900, 1000))
	if err != nil {
		t.Fatal(err)
	}
	waitBatch(t, b)
	batchJob, ok := s1.Job(b.ID)
	if !ok {
		t.Fatalf("batch %s has no job", b.ID)
	}
	jobs = append(jobs, batchJob)

	before := map[string]JobView{}
	kinds := map[string]int{}
	for _, job := range jobs {
		v := job.View()
		before[job.ID] = v
		switch {
		case v.Status == StatusFailed:
			kinds["failed"]++
		case v.Cached:
			kinds["cached"]++
		case v.Result != nil && v.Result.Selection != nil && v.Result.Selection.Portfolio != nil:
			kinds["portfolio"]++
		case v.Kind == KindBatch:
			kinds["batch"]++
		default:
			kinds["solved"]++
		}
	}
	for _, k := range []string{"solved", "cached", "failed", "portfolio", "batch"} {
		if kinds[k] == 0 {
			t.Fatalf("no %s job among %v", k, kinds)
		}
	}
	if n := s1.jnl.Compactions(); n < 3 {
		t.Fatalf("%d live compactions, want at least 3", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s1.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestServer(t, Config{Workers: 1, JournalPath: path})
	if rec := s2.Recovery(); rec.JobsRestored != len(jobs) || rec.JobsRequeued != 0 {
		t.Fatalf("recovery stats %+v, want %d jobs restored", rec, len(jobs))
	}
	for id, want := range before {
		job, ok := s2.Job(id)
		if !ok {
			t.Fatalf("job %s lost across the restart", id)
		}
		got := job.View()
		if got.Status != want.Status || got.Key != want.Key || got.Cached != want.Cached || got.Error != want.Error {
			t.Errorf("job %s restored as %s key %s cached %v error %q, was %s key %s cached %v error %q",
				id, got.Status, got.Key, got.Cached, got.Error, want.Status, want.Key, want.Cached, want.Error)
		}
		gotJSON, err := json.Marshal(got.Result)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want.Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("job %s result differs after the restart:\nbefore: %s\nafter:  %s", id, wantJSON, gotJSON)
		}
	}
	// The batch came back as a batch, with every point.
	rb, ok := s2.Batch(b.ID)
	if !ok {
		t.Fatalf("batch %s lost across the restart", b.ID)
	}
	gotPoints, err := json.Marshal(rb.View(true).Points)
	if err != nil {
		t.Fatal(err)
	}
	wantPoints, err := json.Marshal(b.View(true).Points)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotPoints, wantPoints) {
		t.Errorf("batch %s points differ after the restart:\nbefore: %s\nafter:  %s", b.ID, wantPoints, gotPoints)
	}
	// Memoized results came back into the result cache.
	for _, job := range jobs[:3] {
		hit, err := s2.Submit(job.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if v := hit.View(); v.Status != StatusDone || !v.Cached {
			t.Errorf("resubmitted %s after the restart: %s, cached %v; want a cache hit", job.ID, v.Status, v.Cached)
		}
	}
	t.Logf("%d jobs %v across %d live compactions", len(jobs), kinds, s1.jnl.Compactions())
}

func TestFaultWorkerPanicContained(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Faults: mustInjector(t, "seed=1,worker.panic=1")})
	first, err := s.Submit(selectSpec(100))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, first)
	v := first.View()
	if v.Status != StatusFailed || !strings.Contains(v.Error, "worker panic") {
		t.Fatalf("panicked job: %+v", v)
	}
	// The worker survived the panic: a second job still reaches a
	// terminal state instead of waiting forever on a dead pool.
	second, err := s.Submit(selectSpec(200))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, second)
	s.metrics.mu.Lock()
	panics := s.metrics.panics
	s.metrics.mu.Unlock()
	if panics < 2 {
		t.Errorf("panics recovered = %d, want >= 2", panics)
	}
}

func TestFaultQueueFullGives429WithRetryAfter(t *testing.T) {
	s := New(Config{Workers: 1, Faults: mustInjector(t, "seed=2,queue.full=1")})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := strings.NewReader(`{"kind":"select","workload":"gsm","requiredGain":100}`)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

func TestFaultJournalWriteDegradesAvailabilityHolds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	s := openTestServer(t, Config{Workers: 1, JournalPath: path,
		Faults: mustInjector(t, "seed=3,journal.write=1")})
	// Every journal append fails, yet the job is accepted and solved:
	// partitad trades durability down, never availability.
	job, err := s.Submit(selectSpec(100))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if v := job.View(); v.Status != StatusDone {
		t.Fatalf("job under journal faults: %+v", v)
	}
	s.metrics.mu.Lock()
	jerrs := s.metrics.journalErrors
	s.metrics.mu.Unlock()
	if jerrs == 0 {
		t.Error("journal errors not counted")
	}
}

func TestFaultJournalShortWriteRecoversOnReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	s1, err := Open(Config{Workers: 1, JournalPath: path,
		Faults: mustInjector(t, "seed=4,journal.shortwrite=0.4")})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	for i := 0; i < 6; i++ {
		job, err := s1.Submit(selectSpec(int64(100 + i)))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	_ = s1.CloseJournal()

	// Every torn write was repaired in place (truncated back to the last
	// whole record), so the log replays clean: no record that reached the
	// journal after a tear is stranded behind a bad CRC.
	s2 := openTestServer(t, Config{Workers: 1, JournalPath: path})
	rec := s2.Recovery()
	if rec.JobsRestored+rec.JobsRequeued == 0 {
		t.Errorf("nothing recovered despite successful appends: %+v", rec)
	}
	if rec.Corrupt || rec.TruncatedBytes != 0 {
		t.Errorf("torn writes were not repaired in place: %+v", rec)
	}
	for _, id := range func() []string {
		s2.mu.Lock()
		defer s2.mu.Unlock()
		return append([]string(nil), s2.order...)
	}() {
		job, _ := s2.Job(id)
		waitDone(t, job)
	}
}

func TestFaultJournalSyncDegradationSurfaced(t *testing.T) {
	// Every append's fsync fails: the journal degrades (the self-healing
	// compaction succeeds, but the retried append's fsync fails again),
	// the job still completes, and the degradation is visible on both
	// /readyz and /metrics so a load balancer can steer away.
	path := filepath.Join(t.TempDir(), "wal")
	s := openTestServer(t, Config{Workers: 1, JournalPath: path,
		Faults: mustInjector(t, "seed=7,journal.sync=1")})
	job, err := s.Submit(selectSpec(100))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if v := job.View(); v.Status != StatusDone {
		t.Fatalf("job under fsync faults: %+v", v)
	}
	// The done record is appended after the job completes, and its
	// self-healing compaction clears the degraded state until the retried
	// append fails again: wait for the worker to finish that append.
	for deadline := time.Now().Add(5 * time.Second); s.busy.Load() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("worker still busy after the job completed")
		}
	}
	if !s.jnl.Degraded() {
		t.Fatal("journal not degraded under persistent fsync failure")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "degraded") {
		t.Errorf("degraded readyz = %d %q, want 503 with status degraded", resp.StatusCode, body)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := readBody(t, resp)
	resp.Body.Close()
	for _, want := range []string{"partitad_journal_degraded 1", "partitad_ready 0"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestJournalSubmitRecordPrecedesLifecycle(t *testing.T) {
	// Submit journals the submit record before the job becomes visible to
	// any worker, so a fast worker can never get its running/done records
	// into the log first — replay would drop the job's journaled result
	// and compaction would freeze the inverted order permanently.
	path := filepath.Join(t.TempDir(), "wal")
	s, err := Open(Config{Workers: 4, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	for i := 0; i < 12; i++ {
		job, err := s.Submit(selectSpec(int64(700 + i)))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	rep, err := journal.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	first := map[string]string{}
	var lastSeq uint64
	for _, r := range rep.Records {
		if r.Seq <= lastSeq {
			t.Errorf("journal seq not strictly increasing: %d after %d", r.Seq, lastSeq)
		}
		lastSeq = r.Seq
		if _, ok := first[r.Job]; !ok {
			first[r.Job] = r.Type
		}
	}
	if len(first) != 12 {
		t.Fatalf("journaled jobs = %d, want 12", len(first))
	}
	for id, typ := range first {
		if typ != recSubmit {
			t.Errorf("job %s: first journaled record is %q, want %q", id, typ, recSubmit)
		}
	}
}

func TestFaultSolverStallDelaysJob(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1,
		Faults: mustInjector(t, "seed=5,solver.stall=1,solver.stall.delay=120ms")})
	start := time.Now()
	job, err := s.Submit(selectSpec(100))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if elapsed := time.Since(start); elapsed < 120*time.Millisecond {
		t.Errorf("stalled job finished in %v, want >= 120ms", elapsed)
	}
	if v := job.View(); v.Status != StatusDone {
		t.Fatalf("stalled job: %+v", v)
	}
}

func TestFaultClockSkewShiftsTimestamps(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Faults: mustInjector(t, "clock.skew=1h")})
	job, err := s.Submit(selectSpec(100))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if ahead := time.Until(job.View().SubmittedAt); ahead < 50*time.Minute {
		t.Errorf("submitted timestamp skewed only %v ahead, want ~1h", ahead)
	}
}

func TestLongPollReleasedOnDrain(t *testing.T) {
	s := New(Config{Workers: 1}) // workers never started: the job can't finish
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	job, err := s.Submit(selectSpec(100))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(100 * time.Millisecond)
		s.BeginDrain()
	}()
	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "?wait=25s")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("idle long-poll held %v across drain; want prompt release", elapsed)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("long-poll status = %d", resp.StatusCode)
	}
}

func TestLongPollWakesOnCompletion(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	job, err := s.Submit(selectSpec(900))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "?wait=20s")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("long-poll did not wake on completion (%v)", elapsed)
	}
}

func TestLongPollRejectsBadWait(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	job, err := s.Submit(selectSpec(100))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "?wait=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad wait status = %d", resp.StatusCode)
	}
}

func TestLivenessAndReadinessSplit(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("live healthz = %d", code)
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("live readyz = %d", code)
	}
	s.BeginDrain()
	// Liveness holds through the drain; readiness drops so the load
	// balancer stops routing.
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("draining healthz = %d, want 200", code)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("draining readyz = %d, want 503", code)
	}
}

func TestReadinessFalseBeforeReplayFinishes(t *testing.T) {
	// New with a journal path configured models the mid-replay state:
	// Open flips ready only after the rebuild completes.
	s := New(Config{Workers: 1, JournalPath: "configured-but-not-replayed"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mid-replay readyz = %d, want 503", resp.StatusCode)
	}
}

func TestJournalMetricsExposed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	s := openTestServer(t, Config{Workers: 1, JournalPath: path,
		Faults: mustInjector(t, "seed=9,solver.stall=1,solver.stall.delay=1ms")})
	job, err := s.Submit(selectSpec(123))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readBody(t, resp)); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"partitad_journal_enabled 1",
		"partitad_journal_replay_seconds",
		"partitad_journal_records_replayed 0",
		"partitad_journal_compactions_total",
		"partitad_journal_fsync_seconds_bucket",
		"partitad_journal_errors_total 0",
		"partitad_journal_degraded 0",
		`partitad_faults_injected_total{point="solver.stall"} 1`,
		"partitad_ready 1",
		"partitad_panics_recovered_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !strings.Contains(text, "partitad_journal_fsync_seconds_count") {
		t.Error("fsync histogram missing")
	}
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}
