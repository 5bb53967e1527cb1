package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"partita"
	"partita/internal/journal"
)

// The batch API: POST /v1/batches accepts many (program, catalog,
// required-gain) points in one request and solves them as one unit of
// work. Points are content-addressed exactly like single select jobs,
// so a point already answered by the result cache completes at submit
// time, a point identical to an in-flight job attaches to it instead of
// re-solving, and duplicate points inside one batch are solved once.
// The remainder is journaled and fanned into the worker pool as one
// batch job whose executor groups points by analyzed program and drives
// the shared-analysis sweep pipeline (partita.SweepPipeline) over each
// group: the program is analyzed once, points whose answer is proven by
// a looser point complete with zero solver work, and only the rest are
// solved. Results stream incrementally over the batch's event log (see
// stream.go).

// KindBatch marks the internal job that carries one accepted batch
// through the worker pool. It is not a submittable kind on /v1/jobs.
const KindBatch Kind = "batch"

// BatchPoint is one point of a batch: a required gain plus optional
// overrides of the batch defaults. A zero field inherits the default;
// naming a workload clears an inherited inline program and vice versa.
type BatchPoint struct {
	RequiredGain int64 `json:"requiredGain"`
	// Program overrides (see JobSpec).
	Workload string        `json:"workload,omitempty"`
	Source   string        `json:"source,omitempty"`
	Root     string        `json:"root,omitempty"`
	Catalog  []*partita.IP `json:"catalog,omitempty"`
	Options  *SpecOptions  `json:"options,omitempty"`
	// Budget overrides.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	MaxNodes  int   `json:"maxNodes,omitempty"`
	// Parallelism is accepted and ignored.
	//
	// Deprecated: kept so existing clients' requests still decode.
	Parallelism int `json:"parallelism,omitempty"`
}

// BatchSpec is one submitted batch: shared defaults (program, budgets)
// plus the points. Defaults.Kind must be empty or "select"; every point
// resolves to an ordinary select JobSpec, which is what makes batch
// points and single jobs share one content-address space.
type BatchSpec struct {
	Defaults JobSpec      `json:"defaults"`
	Points   []BatchPoint `json:"points"`
}

// point resolves point i against the defaults into the select JobSpec
// it is equivalent to.
func (b *BatchSpec) point(i int) (JobSpec, error) {
	p := b.Points[i]
	spec := b.Defaults
	spec.Kind = KindSelect
	spec.Points = 0
	spec.PerPath = nil
	if p.Workload != "" {
		spec.Workload = p.Workload
		spec.Source, spec.Root, spec.Catalog = "", "", nil
	}
	if p.Source != "" {
		spec.Source = p.Source
		spec.Workload = ""
	}
	if p.Root != "" {
		spec.Root = p.Root
	}
	if len(p.Catalog) > 0 {
		spec.Catalog = p.Catalog
		spec.Workload = ""
	}
	if p.Options != nil {
		spec.Options = *p.Options
	}
	spec.RequiredGain = p.RequiredGain
	if p.TimeoutMs > 0 {
		spec.TimeoutMs = p.TimeoutMs
	}
	if p.MaxNodes > 0 {
		spec.MaxNodes = p.MaxNodes
	}
	if err := spec.Validate(); err != nil {
		return JobSpec{}, err
	}
	return spec, nil
}

// Batch submission errors beyond the shared admission sentinels.
var (
	// ErrBatchTooLarge reports a batch over the configured point cap;
	// the HTTP layer maps it (and an oversized request body) to 413.
	ErrBatchTooLarge = errors.New("service: batch exceeds the point cap")
)

// BatchPointError names the offending point of an invalid batch.
type BatchPointError struct {
	Index int
	Err   error
}

func (e *BatchPointError) Error() string {
	return fmt.Sprintf("service: batch point %d: %v", e.Index, e.Err)
}

func (e *BatchPointError) Unwrap() error { return e.Err }

// Point dispositions: how the batch disposed of each point.
const (
	// DispositionPending: not yet terminal.
	DispositionPending = "pending"
	// DispositionCached: answered from the result cache without queuing.
	DispositionCached = "cached"
	// DispositionCoalesced: attached to an identical in-flight job.
	DispositionCoalesced = "coalesced"
	// DispositionDuplicate: identical to an earlier point of this batch;
	// carries that point's result.
	DispositionDuplicate = "duplicate"
	// DispositionSolved: the pipeline ran the exact solver.
	DispositionSolved = "solved"
	// DispositionReused: completed with zero solver work — its answer
	// was proven by a looser point of the same program (plateau reuse or
	// propagated infeasibility).
	DispositionReused = "reused"
	// DispositionFailed: the point errored.
	DispositionFailed = "failed"
)

// BatchPointResult is one finished point on the wire (events, batch
// result, journal).
type BatchPointResult struct {
	Index        int              `json:"index"`
	RequiredGain int64            `json:"requiredGain"`
	Key          string           `json:"key"`
	Disposition  string           `json:"disposition"`
	Selection    *SelectionResult `json:"selection,omitempty"`
	Error        string           `json:"error,omitempty"`
	// Memoized records whether the point's result entered the result
	// cache (replay restores those entries).
	Memoized bool `json:"memoized,omitempty"`
}

// BatchSummary is the terminal accounting of a batch: how many points
// each disposition claimed and the batch wall clock.
type BatchSummary struct {
	Total      int   `json:"total"`
	Cached     int   `json:"cached"`
	Coalesced  int   `json:"coalesced"`
	Duplicates int   `json:"duplicates"`
	Solved     int   `json:"solved"`
	Reused     int   `json:"reused"`
	Failed     int   `json:"failed"`
	ElapsedMs  int64 `json:"elapsedMs"`
	// Draining marks a batch finished under a server drain: unfinished
	// points degraded to their best incumbents and nothing was memoized.
	Draining bool `json:"draining,omitempty"`
}

// BatchResult is the batch payload of a finished batch job.
type BatchResult struct {
	Points  []BatchPointResult `json:"points"`
	Summary BatchSummary       `json:"summary"`
}

// BatchPointView is one point's row in a batch snapshot.
type BatchPointView struct {
	Index        int    `json:"index"`
	RequiredGain int64  `json:"requiredGain"`
	Key          string `json:"key"`
	Done         bool   `json:"done"`
	Disposition  string `json:"disposition"`
	Status       string `json:"status,omitempty"`
	Error        string `json:"error,omitempty"`
}

// BatchView is the JSON snapshot served by the batch endpoints.
type BatchView struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	Status Status `json:"status"`
	Total  int    `json:"total"`
	// Remaining counts points not yet terminal.
	Remaining int `json:"remaining"`
	// LastEventID is the newest event in the batch's log; streams resume
	// from any earlier ID.
	LastEventID uint64           `json:"lastEventId"`
	Recovered   bool             `json:"recovered,omitempty"`
	SubmittedAt time.Time        `json:"submittedAt"`
	FinishedAt  *time.Time       `json:"finishedAt,omitempty"`
	Summary     *BatchSummary    `json:"summary,omitempty"`
	Points      []BatchPointView `json:"points,omitempty"`
}

// batchPoint is one point's runtime state.
type batchPoint struct {
	spec JobSpec
	key  string
	// dup is the index of the earlier identical point this one mirrors
	// (-1 for primaries).
	dup         int
	done        bool
	disposition string
	sel         *SelectionResult
	errMsg      string
	memoized    bool
}

// Batch is one tracked batch submission. Point state and the event log
// are guarded by mu; the event log is append-only and consumers resume
// from any event ID (see stream.go).
type Batch struct {
	ID  string
	Key string
	// job is the queued batch job carrying the pending points through
	// the worker pool (nil when every point was answered at submit).
	job *Job

	spec      BatchSpec
	recovered bool

	mu        sync.Mutex
	points    []*batchPoint
	remaining int
	status    Status
	submitted time.Time
	finished  time.Time
	draining  bool
	events    []BatchEvent
	notify    chan struct{}
	// pointRecs are the journaled per-point completion records still
	// live for compaction while the batch is unfinished (the terminal
	// done record retires them; see Job.liveRecords).
	pointRecs map[int]journal.Record
}

// setPointRecord remembers one settled point's journal record for
// compaction while the batch is unfinished.
func (b *Batch) setPointRecord(idx int, rec journal.Record) {
	b.mu.Lock()
	if b.pointRecs == nil {
		b.pointRecs = map[int]journal.Record{}
	}
	b.pointRecs[idx] = rec
	b.mu.Unlock()
}

// pointRecords snapshots the live per-point records in index order.
func (b *Batch) pointRecords() []journal.Record {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.pointRecs) == 0 {
		return nil
	}
	idxs := make([]int, 0, len(b.pointRecs))
	for i := range b.pointRecs {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	out := make([]journal.Record, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, b.pointRecs[i])
	}
	return out
}

// View snapshots the batch. withPoints includes the per-point rows
// (lists omit them; a batch can hold thousands of points).
func (b *Batch) View(withPoints bool) BatchView {
	b.mu.Lock()
	defer b.mu.Unlock()
	v := BatchView{
		ID:          b.ID,
		Key:         b.Key,
		Status:      b.status,
		Total:       len(b.points),
		Remaining:   b.remaining,
		LastEventID: uint64(len(b.events)),
		Recovered:   b.recovered,
		SubmittedAt: b.submitted,
	}
	if !b.finished.IsZero() {
		t := b.finished
		v.FinishedAt = &t
	}
	if b.status == StatusDone {
		s := b.summaryLocked()
		v.Summary = &s
	}
	if withPoints {
		v.Points = make([]BatchPointView, len(b.points))
		for i, p := range b.points {
			pv := BatchPointView{
				Index:        i,
				RequiredGain: p.spec.RequiredGain,
				Key:          p.key,
				Done:         p.done,
				Disposition:  p.disposition,
				Error:        p.errMsg,
			}
			if p.sel != nil {
				pv.Status = p.sel.Status
			}
			v.Points[i] = pv
		}
	}
	return v
}

// Done reports whether every point is terminal.
func (b *Batch) Done() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.status == StatusDone
}

// summaryLocked tallies dispositions; callers hold b.mu.
func (b *Batch) summaryLocked() BatchSummary {
	s := BatchSummary{Total: len(b.points), Draining: b.draining}
	for _, p := range b.points {
		switch p.disposition {
		case DispositionCached:
			s.Cached++
		case DispositionCoalesced:
			s.Coalesced++
		case DispositionDuplicate:
			s.Duplicates++
		case DispositionSolved:
			s.Solved++
		case DispositionReused:
			s.Reused++
		case DispositionFailed:
			s.Failed++
		}
	}
	if !b.finished.IsZero() {
		s.ElapsedMs = b.finished.Sub(b.submitted).Milliseconds()
	}
	return s
}

// result assembles the batch job's result payload.
func (b *Batch) result() *BatchResult {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := &BatchResult{Summary: b.summaryLocked()}
	out.Points = make([]BatchPointResult, len(b.points))
	for i, p := range b.points {
		out.Points[i] = BatchPointResult{
			Index:        i,
			RequiredGain: p.spec.RequiredGain,
			Key:          p.key,
			Disposition:  p.disposition,
			Selection:    p.sel,
			Error:        p.errMsg,
			Memoized:     p.memoized,
		}
	}
	return out
}

// batchKey is the batch's own content address: the ordered list of its
// point keys. Identical in-flight batches coalesce on it.
func batchKey(keys []string) string {
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	return "b:" + hex.EncodeToString(h.Sum(nil)[:16])
}

// SubmitBatch validates, content-addresses, dedupes, and admits one
// batch. Cached points complete immediately; an identical in-flight
// batch is returned instead of a new one (batch-level coalescing);
// points identical to an in-flight single job attach to it. The rest is
// journaled and enqueued as one batch job. Errors: ErrBatchTooLarge
// (413), *BatchPointError (400, names the offending index), ErrDraining
// and ErrQueueFull (503/429 back-pressure).
func (s *Server) SubmitBatch(spec BatchSpec) (*Batch, error) {
	if len(spec.Points) == 0 {
		return nil, errors.New("service: batch has no points")
	}
	if len(spec.Points) > s.cfg.MaxBatchPoints {
		return nil, fmt.Errorf("%w: %d points > %d", ErrBatchTooLarge, len(spec.Points), s.cfg.MaxBatchPoints)
	}
	if spec.Defaults.Kind != "" && spec.Defaults.Kind != KindSelect {
		return nil, fmt.Errorf("service: batch defaults kind must be empty or %q, got %q", KindSelect, spec.Defaults.Kind)
	}
	if len(spec.Defaults.PerPath) > 0 {
		return nil, errors.New("service: batch defaults must not set perPath")
	}
	if s.draining.Load() {
		s.metrics.JobRejected()
		return nil, ErrDraining
	}

	pts := make([]*batchPoint, len(spec.Points))
	keys := make([]string, len(spec.Points))
	firstByKey := map[string]int{}
	for i := range spec.Points {
		merged, err := spec.point(i)
		if err != nil {
			return nil, &BatchPointError{Index: i, Err: err}
		}
		key, err := merged.resultKey()
		if err != nil {
			return nil, &BatchPointError{Index: i, Err: err}
		}
		keys[i] = key
		pts[i] = &batchPoint{spec: merged, key: key, dup: -1, disposition: DispositionPending}
		if first, ok := firstByKey[key]; ok {
			pts[i].dup = first
		} else {
			firstByKey[key] = i
		}
	}
	bkey := batchKey(keys)

	s.mu.Lock()
	if prev, ok := s.inflightBatches[bkey]; ok {
		s.mu.Unlock()
		s.metrics.JobCoalesced()
		return prev, nil
	}
	s.mu.Unlock()

	now := s.now()
	b := &Batch{
		ID:        s.newBatchID(),
		Key:       bkey,
		spec:      spec,
		points:    pts,
		remaining: len(pts),
		status:    StatusQueued,
		submitted: now,
		notify:    make(chan struct{}),
	}

	// Dedupe pass: duplicates mirror their primary (completed when it
	// completes), cached points finish now, in-flight single jobs are
	// coalesced onto.
	var waiters []func()
	pending := 0
	for i, p := range b.points {
		if p.dup >= 0 {
			continue // settled when its primary settles
		}
		if v, ok := s.results.Get(p.key); ok {
			s.completeBatchPoint(b, i, DispositionCached, selectionOf(v.(*JobResult)), "", false)
			continue
		}
		s.mu.Lock()
		prev, ok := s.inflight[p.key]
		s.mu.Unlock()
		if ok && prev.Spec.Kind == KindSelect {
			s.metrics.JobCoalesced()
			// Marking the disposition now (point not yet done) keeps the
			// batch executor's hands off it: the waiter settles it when
			// the job it attached to finishes.
			p.disposition = DispositionCoalesced
			idx := i
			waiters = append(waiters, func() { s.adoptJobResult(b, idx, prev) })
			continue
		}
		pending++
	}

	if b.allSettledButWaiters(len(waiters)) && len(waiters) == 0 {
		// Every primary was answered from the cache: the batch completes
		// at submit, like a cache-hit job.
		s.finalizeBatchIfDone(b)
		s.trackBatch(b)
		s.journalAppend(batchJournalJob(b), recSubmit, submitData{ID: b.ID, Key: b.Key, Batch: &spec})
		s.journalAppend(batchJournalJob(b), recDone, doneData{Result: &JobResult{Kind: KindBatch, Batch: b.result()}, Cached: true, Outcome: "cached"})
		s.metrics.BatchSubmitted(len(b.points))
		return b, nil
	}

	// Admission: the whole batch takes one queue slot.
	s.mu.Lock()
	if s.queued >= cap(s.queue) {
		s.mu.Unlock()
		s.metrics.JobRejected()
		return nil, ErrQueueFull
	}
	job := &Job{
		ID:        b.ID,
		Spec:      JobSpec{Kind: KindBatch},
		Key:       bkey,
		batch:     b,
		doneCh:    make(chan struct{}),
		status:    StatusQueued,
		submitted: now,
	}
	b.job = job
	s.inflightBatches[bkey] = b
	s.queued++
	s.mu.Unlock()
	s.jobWG.Add(1)
	s.track(job)
	s.trackBatch(b)
	// Durably accepted once this append syncs; the 202 follows it.
	s.journalAppend(job, recSubmit, submitData{ID: b.ID, Key: b.Key, Batch: &spec})
	s.metrics.BatchSubmitted(len(b.points))
	s.queue <- job
	// Coalesced waiters attach after the batch is fully admitted so a
	// fast job completion cannot finalize the batch mid-setup.
	for _, w := range waiters {
		go w()
	}
	return b, nil
}

// allSettledButWaiters reports whether the batch has no work left for
// the queue: every primary point is terminal except the coalesced ones.
func (b *Batch) allSettledButWaiters(waiters int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.remaining == waiters
}

// selectionOf extracts the selection payload of a cached select result.
func selectionOf(res *JobResult) *SelectionResult {
	if res == nil {
		return nil
	}
	return res.Selection
}

// adoptJobResult settles a coalesced point when its in-flight job
// reaches a terminal state.
func (s *Server) adoptJobResult(b *Batch, i int, job *Job) {
	<-job.DoneCh()
	if res := job.Result(); res != nil {
		s.completeBatchPoint(b, i, DispositionCoalesced, selectionOf(res), "", false)
		return
	}
	msg := "coalesced job failed"
	job.mu.Lock()
	if job.errMsg != "" {
		msg = job.errMsg
	}
	job.mu.Unlock()
	s.completeBatchPoint(b, i, DispositionFailed, nil, msg, false)
}

// newBatchID allocates the next batch ID, node-prefixed in cluster
// mode like job IDs.
func (s *Server) newBatchID() string {
	n := s.batchSeq.Add(1)
	if s.cfg.NodeName != "" {
		return fmt.Sprintf("%s-b%06d", s.cfg.NodeName, n)
	}
	return fmt.Sprintf("b%06d", n)
}

// Batch returns a tracked batch by ID.
func (s *Server) Batch(id string) (*Batch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.batches[id]
	return b, ok
}

// trackBatch retains the batch for polling/streaming, evicting the
// oldest finished batches beyond the retention bound.
func (s *Server) trackBatch(b *Batch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batches[b.ID] = b
	s.batchOrder = append(s.batchOrder, b.ID)
	if len(s.batchOrder) <= s.cfg.MaxBatches {
		return
	}
	kept := s.batchOrder[:0]
	excess := len(s.batchOrder) - s.cfg.MaxBatches
	for _, id := range s.batchOrder {
		if excess > 0 && s.batches[id].Done() {
			delete(s.batches, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.batchOrder = kept
}

// completeBatchPoint settles point i (and every duplicate mirroring
// it), emits its point event, and finalizes the batch when it was the
// last. memoize admits the point's result to the result cache under its
// own select-job key, so later single submits and batch resubmits are
// answered without solving.
func (s *Server) completeBatchPoint(b *Batch, i int, disposition string, sel *SelectionResult, errMsg string, memoize bool) {
	if memoize && sel != nil && !s.draining.Load() {
		s.results.Put(b.points[i].key, &JobResult{Kind: KindSelect, Selection: sel})
	} else {
		memoize = false
	}
	b.mu.Lock()
	settle := func(idx int, disp string) {
		p := b.points[idx]
		if p.done {
			return
		}
		p.done = true
		p.disposition = disp
		p.sel = sel
		p.errMsg = errMsg
		p.memoized = memoize && disp != DispositionDuplicate
		b.remaining--
		s.metrics.BatchPointDone(disp)
		b.emitLocked(BatchEvent{
			Type:         EventPoint,
			Point:        idx,
			RequiredGain: p.spec.RequiredGain,
			Result: &BatchPointResult{
				Index:        idx,
				RequiredGain: p.spec.RequiredGain,
				Key:          p.key,
				Disposition:  disp,
				Selection:    sel,
				Error:        errMsg,
				Memoized:     p.memoized,
			},
		})
	}
	settle(i, disposition)
	for j := i + 1; j < len(b.points); j++ {
		if b.points[j].dup == i {
			settle(j, DispositionDuplicate)
		}
	}
	b.mu.Unlock()
	s.finalizeBatchIfDone(b)
}

// finalizeBatchIfDone emits the terminal summary event and completes
// the batch job once every point has settled. Safe to call from any
// goroutine; only the caller that observes the last settlement runs the
// finalization.
func (s *Server) finalizeBatchIfDone(b *Batch) {
	b.mu.Lock()
	if b.remaining != 0 || b.status == StatusDone {
		b.mu.Unlock()
		return
	}
	b.status = StatusDone
	b.finished = s.now()
	b.draining = b.draining || s.draining.Load()
	sum := b.summaryLocked()
	b.emitLocked(BatchEvent{Type: EventSummary, Point: -1, Summary: &sum})
	job := b.job
	b.mu.Unlock()

	s.metrics.BatchCompleted(sum)
	if job != nil {
		s.mu.Lock()
		delete(s.inflightBatches, b.Key)
		s.mu.Unlock()
		res := &JobResult{Kind: KindBatch, Batch: b.result()}
		job.complete(res, false, s.now())
		outcome := "optimal"
		if sum.Failed > 0 {
			outcome = "error"
		} else if sum.Draining {
			outcome = "degraded"
		}
		s.journalAppend(job, recDone, doneData{Result: res, Outcome: outcome})
		s.jobWG.Done()
	}
}

// batchJournalJob wraps a jobless (fully cached) batch in a throwaway
// Job so journalAppend can record it; the records are retired together
// at the next compaction through the job table — cached batches are
// tracked under their batch ID only, so their records are not live.
func batchJournalJob(b *Batch) *Job {
	return &Job{ID: b.ID, Key: b.Key}
}

// runBatch executes one batch job on a worker. Pending points are
// re-checked against the result cache (another batch or job may have
// answered them since submit), then grouped by program identity and
// budget, each group sharing one analysis and one sweep pipeline. The
// worker returns when every grouped point is terminal; coalesced points
// may still be in flight on other workers, in which case their waiter
// goroutines finalize the batch.
func (s *Server) runBatch(job *Job) {
	b := job.batch
	s.busy.Add(1)
	defer s.busy.Add(-1)
	defer func() {
		if r := recover(); r != nil {
			errMsg := fmt.Sprintf("service: batch worker panic: %v", r)
			b.mu.Lock()
			var open []int
			for i, p := range b.points {
				if !p.done && p.dup < 0 && p.disposition == DispositionPending {
					open = append(open, i)
				}
			}
			b.mu.Unlock()
			for _, i := range open {
				s.finishBatchPoint(job, i, DispositionFailed, nil, errMsg, false)
			}
			s.metrics.PanicRecovered()
		}
	}()
	job.setRunning(s.now())
	s.journalAppend(job, recRunning, nil)

	b.mu.Lock()
	pending := make([]int, 0, len(b.points))
	for i, p := range b.points {
		if !p.done && p.dup < 0 && p.disposition == DispositionPending {
			pending = append(pending, i)
		}
	}
	b.mu.Unlock()

	type group struct {
		spec JobSpec // representative (program + budget fields)
		idxs []int
	}
	groups := map[string]*group{}
	var order []string
	for _, i := range pending {
		p := b.points[i]
		if v, ok := s.results.Get(p.key); ok {
			s.finishBatchPoint(job, i, DispositionCached, selectionOf(v.(*JobResult)), "", false)
			continue
		}
		dk, err := p.spec.designKey()
		if err != nil {
			s.finishBatchPoint(job, i, DispositionFailed, nil, err.Error(), false)
			continue
		}
		gk := fmt.Sprintf("%s|t%d|n%d", dk, p.spec.TimeoutMs, p.spec.MaxNodes)
		g, ok := groups[gk]
		if !ok {
			g = &group{spec: p.spec}
			groups[gk] = g
			order = append(order, gk)
		}
		g.idxs = append(g.idxs, i)
	}

	ctx, stop := withDrain(context.Background(), s.drain)
	defer stop()
	for _, gk := range order {
		s.runBatchGroup(ctx, job, groups[gk].spec, groups[gk].idxs)
	}
	// Normally the last settling point finalized the batch (or coalesced
	// waiters will); a replayed batch whose every point was journaled
	// complete before the crash settles nothing here, so finalize
	// explicitly — the call is a no-op unless remaining is zero.
	s.finalizeBatchIfDone(b)
}

// finishBatchPoint settles point i with its terminal disposition,
// journaling the completion first (WAL order: record, then apply) so a
// crash between the two re-plays the point as done rather than
// re-solving it.
func (s *Server) finishBatchPoint(job *Job, i int, disposition string, sel *SelectionResult, errMsg string, memoize bool) {
	b := job.batch
	// Mirror completeBatchPoint's memoize rules so the journaled record
	// matches what the cache will hold after replay.
	memoize = memoize && sel != nil && !s.draining.Load()
	p := b.points[i]
	key, rg := p.key, p.spec.RequiredGain
	s.journalAppendPoint(job, i, pointData{Result: BatchPointResult{
		Index:        i,
		RequiredGain: rg,
		Key:          key,
		Disposition:  disposition,
		Selection:    sel,
		Error:        errMsg,
		Memoized:     memoize,
	}})
	s.completeBatchPoint(b, i, disposition, sel, errMsg, memoize)
}

// runBatchGroup solves one program's points through a shared-analysis
// pipeline, ascending by required gain so plateau reuse and
// infeasibility propagation fire as often as possible.
func (s *Server) runBatchGroup(ctx context.Context, job *Job, spec JobSpec, idxs []int) {
	b := job.batch
	design, err := s.design(spec)
	if err != nil {
		for _, i := range idxs {
			s.finishBatchPoint(job, i, DispositionFailed, nil, err.Error(), false)
		}
		return
	}
	sort.Slice(idxs, func(a, c int) bool {
		if b.points[idxs[a]].spec.RequiredGain != b.points[idxs[c]].spec.RequiredGain {
			return b.points[idxs[a]].spec.RequiredGain < b.points[idxs[c]].spec.RequiredGain
		}
		return idxs[a] < idxs[c]
	})
	gains := make([]int64, len(idxs))
	for k, i := range idxs {
		gains[k] = b.points[i].spec.RequiredGain
	}
	bud := partita.Budget{MaxNodes: spec.MaxNodes}
	timeout := s.jobTimeout(spec)
	jobObserve := s.observeJob(job)
	pl := design.NewSweepPipeline(gains, bud, func(k int, inc partita.Incumbent) {
		// Stream the incumbent as a per-point progress event — the same
		// anytime event the single-job poll surface reports — and fold
		// it into the batch job's own snapshot/checkpoint path.
		b.emitProgress(idxs[k], b.points[idxs[k]].spec.RequiredGain, inc)
		jobObserve(inc)
	})
	for {
		pctx, cancel := ctx, context.CancelFunc(func() {})
		if timeout > 0 {
			pctx, cancel = context.WithTimeout(ctx, timeout)
		}
		pt, ok, err := pl.Next(pctx)
		cancel()
		if !ok {
			return
		}
		i := idxs[pt.Index]
		if err != nil {
			s.finishBatchPoint(job, i, DispositionFailed, nil, err.Error(), false)
			continue
		}
		disp := DispositionSolved
		if pt.Reused {
			disp = DispositionReused
		} else {
			s.metrics.SolveStarted()
		}
		s.finishBatchPoint(job, i, disp, NewSelectionResult(pt.Sel), "", true)
	}
}

// jobTimeout resolves one point's solve deadline under the server's
// default and cap — the same clamping execute applies to single jobs.
func (s *Server) jobTimeout(spec JobSpec) time.Duration {
	timeout := s.cfg.DefaultTimeout
	if spec.TimeoutMs > 0 {
		timeout = time.Duration(spec.TimeoutMs) * time.Millisecond
	}
	if s.cfg.MaxTimeout > 0 && (timeout <= 0 || timeout > s.cfg.MaxTimeout) {
		timeout = s.cfg.MaxTimeout
	}
	return timeout
}
