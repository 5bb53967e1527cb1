package service

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"partita/internal/faults"
	"partita/internal/journal"
)

// batchSpec builds a batch over the shared test program with one point
// per required gain.
func batchSpec(gains ...int64) BatchSpec {
	b := BatchSpec{
		Defaults: JobSpec{
			Source:  testSource,
			Root:    "process",
			Catalog: testCatalog(),
		},
	}
	for _, rg := range gains {
		b.Points = append(b.Points, BatchPoint{RequiredGain: rg})
	}
	return b
}

func waitBatch(t testing.TB, b *Batch) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !b.Done() {
		if time.Now().After(deadline) {
			t.Fatalf("batch %s did not finish; view: %+v", b.ID, b.View(true))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func solvesStarted(s *Server) uint64 {
	s.metrics.mu.Lock()
	defer s.metrics.mu.Unlock()
	return s.metrics.solvesStarted
}

func TestBatchSolvesAllPointsAndMatchesSingleJobs(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})

	gains := []int64{500, 1000, 1500, 2000}
	b, err := s.SubmitBatch(batchSpec(gains...))
	if err != nil {
		t.Fatal(err)
	}
	waitBatch(t, b)

	v := b.View(true)
	if v.Status != StatusDone || v.Remaining != 0 || v.Total != len(gains) {
		t.Fatalf("batch view: %+v", v)
	}
	sum := *v.Summary
	if sum.Solved+sum.Reused+sum.Cached+sum.Coalesced+sum.Duplicates != len(gains) || sum.Failed != 0 {
		t.Fatalf("summary does not account for every point: %+v", sum)
	}
	if sum.Solved == 0 {
		t.Fatalf("no point was actually solved: %+v", sum)
	}

	// Every point's result must be byte-identical to what an independent
	// single-select submission of the same spec returns — and must be
	// answered from the cache the batch populated, without a new solve.
	before := solvesStarted(s)
	for i, rg := range gains {
		job, err := s.Submit(selectSpec(rg))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job)
		jv := job.View()
		if !jv.Cached {
			t.Errorf("point %d (rg=%d): single submit after batch was not a cache hit", i, rg)
		}
		var sel *SelectionResult
		for _, p := range b.result().Points {
			if p.Index == i {
				sel = p.Selection
			}
		}
		if sel == nil || !reflect.DeepEqual(jv.Result.Selection, sel) {
			t.Errorf("point %d: batch result differs from single job:\nbatch:  %+v\nsingle: %+v",
				i, sel, jv.Result.Selection)
		}
	}
	if after := solvesStarted(s); after != before {
		t.Errorf("single submits after the batch re-solved: solves %d -> %d", before, after)
	}
}

func TestBatchCacheWarmResubmitPerformsZeroSolves(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})

	spec := batchSpec(400, 800, 1200)
	first, err := s.SubmitBatch(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitBatch(t, first)
	before := solvesStarted(s)

	second, err := s.SubmitBatch(spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.ID == first.ID {
		t.Fatal("finished batch must not be coalesced onto")
	}
	if !second.Done() {
		t.Fatalf("cache-warm resubmit should complete at submit: %+v", second.View(false))
	}
	sum := *second.View(false).Summary
	if sum.Cached+sum.Duplicates != sum.Total || sum.Solved != 0 || sum.Reused != 0 {
		t.Fatalf("resubmit summary should be all cached: %+v", sum)
	}
	if after := solvesStarted(s); after != before {
		t.Errorf("cache-warm resubmit solved: partitad_solves_started_total %d -> %d", before, after)
	}

	// The batch's events must still tell the whole story: one point
	// event per point plus the terminal summary.
	evs, done, _ := second.eventsAfter(0)
	if !done || len(evs) != sum.Total+1 {
		t.Fatalf("cached batch events: done=%v n=%d want %d", done, len(evs), sum.Total+1)
	}
	if evs[len(evs)-1].Type != EventSummary {
		t.Fatalf("last event is %q, want summary", evs[len(evs)-1].Type)
	}
}

func TestBatchWithinBatchDuplicatesSolveOnce(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})

	spec := batchSpec(700, 700, 700)
	b, err := s.SubmitBatch(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitBatch(t, b)
	sum := *b.View(false).Summary
	if sum.Duplicates != 2 || sum.Solved != 1 {
		t.Fatalf("duplicate accounting: %+v", sum)
	}
	res := b.result()
	for i := 1; i < 3; i++ {
		if res.Points[i].Disposition != DispositionDuplicate {
			t.Errorf("point %d disposition %q, want duplicate", i, res.Points[i].Disposition)
		}
		if !reflect.DeepEqual(res.Points[i].Selection, res.Points[0].Selection) {
			t.Errorf("duplicate point %d carries a different result", i)
		}
	}
}

func TestBatchCoalescesOntoInflightSingleJob(t *testing.T) {
	inj, err := faults.Parse("seed=7,solver.stall=1,solver.stall.delay=250ms")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 1, Faults: inj})

	// The single job stalls 250ms before solving; the batch's identical
	// point must attach to it instead of re-solving.
	job, err := s.Submit(selectSpec(900))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.SubmitBatch(batchSpec(900))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	waitBatch(t, b)
	sum := *b.View(false).Summary
	if sum.Coalesced != 1 || sum.Solved != 0 {
		t.Fatalf("coalescing summary: %+v", sum)
	}
	if got, want := b.result().Points[0].Selection, job.Result().Selection; !reflect.DeepEqual(got, want) {
		t.Errorf("coalesced point differs from the job it attached to:\nbatch: %+v\njob:   %+v", got, want)
	}
}

func TestBatchIdenticalInflightBatchesCoalesce(t *testing.T) {
	inj, err := faults.Parse("seed=7,solver.stall=1,solver.stall.delay=250ms")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 1, Faults: inj})

	// Occupy the only worker so the first batch stays queued while the
	// second identical batch arrives.
	blocker, err := s.Submit(selectSpec(333))
	if err != nil {
		t.Fatal(err)
	}
	spec := batchSpec(600, 1200)
	first, err := s.SubmitBatch(spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.SubmitBatch(spec)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatalf("identical in-flight batch was not coalesced: %s vs %s", first.ID, second.ID)
	}
	waitDone(t, blocker)
	waitBatch(t, first)
}

func TestBatchValidationErrors(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxBatchPoints: 4})

	if _, err := s.SubmitBatch(BatchSpec{}); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := s.SubmitBatch(batchSpec(1, 2, 3, 4, 5)); !errors.Is(err, ErrBatchTooLarge) {
		t.Errorf("oversized batch: err=%v, want ErrBatchTooLarge", err)
	}

	bad := batchSpec(100, 200)
	bad.Points[1].RequiredGain = -5
	_, err := s.SubmitBatch(bad)
	var pe *BatchPointError
	if !errors.As(err, &pe) || pe.Index != 1 {
		t.Fatalf("malformed point: err=%v, want BatchPointError at index 1", err)
	}

	sweepDefaults := batchSpec(100)
	sweepDefaults.Defaults.Kind = KindSweep
	if _, err := s.SubmitBatch(sweepDefaults); err == nil {
		t.Error("batch with sweep defaults accepted")
	}
}

func TestBatchPointOverridesDefaults(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})

	spec := batchSpec(500)
	spec.Points = append(spec.Points, BatchPoint{RequiredGain: 500, MaxNodes: 100000})
	b, err := s.SubmitBatch(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitBatch(t, b)
	res := b.result()
	// Same gain but a different budget is a different content address:
	// both points must be primaries, not duplicates.
	if res.Points[0].Key == res.Points[1].Key {
		t.Fatal("budget override did not change the point's content address")
	}
	if res.Points[1].Disposition == DispositionDuplicate {
		t.Fatal("overridden point was treated as a duplicate")
	}
}

func TestBatchQueueFullBackpressure(t *testing.T) {
	inj, err := faults.Parse("seed=7,solver.stall=1,solver.stall.delay=400ms")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Faults: inj})

	// One job stalls on the worker, one fills the queue slot.
	if _, err := s.Submit(selectSpec(10)); err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick the stalling job up so the next submit
	// lands in the queue slot instead of racing for it.
	for deadline := time.Now().Add(5 * time.Second); s.busy.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the stalling job")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(selectSpec(20)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitBatch(batchSpec(30)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("batch on a full queue: err=%v, want ErrQueueFull", err)
	}
}

func TestBatchJournalReplayRestoresResultsAndCache(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal")

	s, err := Open(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	spec := batchSpec(500, 1000, 1500)
	b, err := s.SubmitBatch(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitBatch(t, b)
	want := b.result()
	shutdownServer(t, s)

	re, err := Open(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	re.Start()
	defer shutdownServer(t, re)

	rb, ok := re.Batch(b.ID)
	if !ok {
		t.Fatalf("batch %s not restored", b.ID)
	}
	if !rb.Done() {
		t.Fatalf("restored batch not done: %+v", rb.View(false))
	}
	if got := rb.result(); !reflect.DeepEqual(got.Points, want.Points) {
		t.Errorf("restored points differ:\ngot:  %+v\nwant: %+v", got.Points, want.Points)
	}
	// The restored event log must still end in the summary so a client
	// reconnecting after the restart can finish its stream.
	evs, done, _ := rb.eventsAfter(0)
	if !done || len(evs) == 0 || evs[len(evs)-1].Type != EventSummary {
		t.Fatalf("restored events: done=%v n=%d", done, len(evs))
	}
	// And the per-point cache must be warm again: resubmitting the batch
	// performs zero new solves.
	before := solvesStarted(re)
	again, err := re.SubmitBatch(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Done() {
		t.Fatalf("resubmit after replay should complete at submit: %+v", again.View(false))
	}
	if after := solvesStarted(re); after != before {
		t.Errorf("resubmit after replay solved: %d -> %d", before, after)
	}
}

func TestBatchJournalReplayRequeuesUnfinished(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal")

	// Workers are never started: the batch stays queued, the process
	// "crashes" with only the submit record journaled.
	s, err := Open(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitBatch(batchSpec(500, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	re.Start()
	defer shutdownServer(t, re)
	if re.Recovery().JobsRequeued != 1 {
		t.Fatalf("requeued = %d, want 1", re.Recovery().JobsRequeued)
	}
	var rb *Batch
	for _, id := range re.batchOrder {
		rb = re.batches[id]
	}
	if rb == nil {
		t.Fatal("no batch restored")
	}
	waitBatch(t, rb)
	sum := *rb.View(false).Summary
	if sum.Solved+sum.Reused != 2 || sum.Failed != 0 {
		t.Fatalf("replayed batch summary: %+v", sum)
	}
	if !rb.View(false).Recovered {
		t.Error("restored batch not marked recovered")
	}
}

// batchPointKeys returns the content key of every point of spec.
func batchPointKeys(t *testing.T, spec BatchSpec) []string {
	t.Helper()
	keys := make([]string, len(spec.Points))
	for i := range spec.Points {
		merged, err := spec.point(i)
		if err != nil {
			t.Fatal(err)
		}
		if keys[i], err = merged.resultKey(); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// journalRec is one hand-written journal record: its type and payload.
type journalRec struct {
	typ  string
	data any
}

// writeBatchJournal writes by hand the journal of a daemon that died
// mid-batch: the submit record of spec as batch b000001, then recs in
// order, with no done record.
func writeBatchJournal(t *testing.T, path string, spec BatchSpec, recs ...journalRec) {
	t.Helper()
	jnl, _, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs = append([]journalRec{{recSubmit, submitData{ID: "b000001", Key: batchKey(batchPointKeys(t, spec)), Batch: &spec}}}, recs...)
	for _, r := range recs {
		if _, err := jnl.Append(r.typ, "b000001", r.data); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchReplayAllPointsJournaled covers a crash after every point's
// completion was journaled but before the batch's done record landed.
// The replayed batch has nothing to solve; runBatch must still finalize
// it to a terminal summary.
func TestBatchReplayAllPointsJournaled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	gains := []int64{500, 1000}
	spec := batchSpec(gains...)
	keys := batchPointKeys(t, spec)
	var recs []journalRec
	for i, rg := range gains {
		recs = append(recs, journalRec{recPoint, pointData{Result: BatchPointResult{
			Index: i, RequiredGain: rg, Key: keys[i], Disposition: DispositionSolved,
			Selection: &SelectionResult{Status: "optimal", Gain: rg}, Memoized: true,
		}}})
	}
	writeBatchJournal(t, path, spec, recs...)

	s, err := Open(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer shutdownServer(t, s)
	rb, ok := s.Batch("b000001")
	if !ok {
		t.Fatal("batch not restored")
	}
	waitBatch(t, rb)
	if sum := *rb.View(false).Summary; sum.Solved != 2 || sum.Failed != 0 || sum.Total != 2 {
		t.Fatalf("summary: %+v", sum)
	}
	if solves := solvesStarted(s); solves != 0 {
		t.Errorf("fully-journaled batch re-solved %d points", solves)
	}
	for i, pkey := range keys {
		if _, ok := s.CachedResult(pkey); !ok {
			t.Errorf("point %d not re-memoized from its journaled completion", i)
		}
	}
}

// TestBatchReplayOlderJournalRecords replays an unfinished batch written
// by a daemon that still ring-routed batch points to peers: one point
// solved locally, one solved by a peer (disposition "remote", a node
// name), and one in flight under a "lease" record. The two journaled
// points must come back done and cached without re-solving, the leased
// point must solve locally, the summary must account for every point,
// and replay compaction must drop the lease record.
func TestBatchReplayOlderJournalRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	gains := []int64{500, 1000, 1500}
	spec := batchSpec(gains...)
	keys := batchPointKeys(t, spec)
	// Area 3 marks the journaled selections: a re-solve would replace it.
	sel := func(rg int64) map[string]any {
		return map[string]any{"status": "optimal", "gain": rg, "area": 3}
	}
	writeBatchJournal(t, path, spec,
		journalRec{recPoint, map[string]any{"result": map[string]any{
			"index": 0, "requiredGain": gains[0], "key": keys[0], "disposition": "solved",
			"selection": sel(gains[0]), "memoized": true,
		}}},
		journalRec{recPoint, map[string]any{"result": map[string]any{
			"index": 1, "requiredGain": gains[1], "key": keys[1], "disposition": "remote",
			"selection": sel(gains[1]), "memoized": true, "node": "peer2",
		}}},
		journalRec{"lease", map[string]any{
			"index": 2, "key": keys[2], "peer": "peer2", "deadline": time.Now().Add(time.Minute),
		}},
	)

	s, err := Open(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := journal.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range rep.Records {
		if rec.Type == "lease" {
			t.Errorf("replay compaction kept a lease record: %+v", rec)
		}
	}
	rb, ok := s.Batch("b000001")
	if !ok {
		t.Fatal("batch not restored")
	}
	if v := rb.View(true); v.Remaining != 1 || !v.Points[0].Done || !v.Points[1].Done || v.Points[2].Done {
		t.Fatalf("restored batch: %+v", v)
	}
	for i := 0; i < 2; i++ {
		if _, ok := s.CachedResult(keys[i]); !ok {
			t.Errorf("journaled point %d not re-memoized", i)
		}
	}

	s.Start()
	defer shutdownServer(t, s)
	waitBatch(t, rb)
	if solves := solvesStarted(s); solves > 1 {
		t.Errorf("replayed batch started %d solves, want at most 1 (the leased point)", solves)
	}
	sum := *rb.View(false).Summary
	if sum.Failed != 0 || sum.Solved+sum.Reused+sum.Cached+sum.Duplicates+sum.Failed != sum.Total {
		t.Fatalf("summary does not account for every point: %+v", sum)
	}
	res := rb.result()
	for i := 0; i < 2; i++ {
		if p := res.Points[i]; p.Disposition != DispositionSolved || p.Selection == nil || p.Selection.Area != 3 {
			t.Errorf("journaled point %d re-solved or mis-mapped: %+v", i, p)
		}
	}
	if p := res.Points[2]; p.Disposition != DispositionSolved && p.Disposition != DispositionReused {
		t.Errorf("leased point did not solve locally: %+v", p)
	}
}

func shutdownServer(t testing.TB, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := s.CloseJournal(); err != nil {
		t.Fatalf("close journal: %v", err)
	}
}

func TestBatchRetentionEvictsFinished(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxBatches: 2})
	var last *Batch
	for i := 0; i < 4; i++ {
		b, err := s.SubmitBatch(batchSpec(int64(100 * (i + 1))))
		if err != nil {
			t.Fatal(err)
		}
		waitBatch(t, b)
		last = b
	}
	s.mu.Lock()
	n := len(s.batches)
	s.mu.Unlock()
	if n > 2 {
		t.Fatalf("batches retained = %d, want <= 2", n)
	}
	if _, ok := s.Batch(last.ID); !ok {
		t.Fatal("newest batch evicted")
	}
}
