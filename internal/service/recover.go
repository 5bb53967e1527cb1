package service

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"partita/internal/faults"
	"partita/internal/journal"
)

// Journal record types. One job's lifecycle is submit → running →
// checkpoint* → (done | failed); running and checkpoint records are
// dropped at compaction (a job that was mid-solve at a crash simply
// re-runs from its spec, resuming visibility from its last checkpoint).
const (
	recSubmit     = "submit"
	recRunning    = "running"
	recCheckpoint = "checkpoint"
	recDone       = "done"
	recFailed     = "failed"
	// recPoint is a batch point's terminal disposition, written before
	// the point settles in memory (WAL order), so a crash mid-batch
	// replays completed points as done instead of re-solving them. Point
	// records stay live until the batch's done record lands.
	recPoint = "point"
)

// submitData is the payload of a submit record: everything needed to
// re-admit the job after a crash. Owner is the cluster ownership record
// (nil outside cluster mode): a restarted node can tell which journaled
// jobs it accepted on a dead peer's behalf.
type submitData struct {
	ID    string     `json:"id"`
	Key   string     `json:"key"`
	Spec  JobSpec    `json:"spec"`
	Owner *Ownership `json:"owner,omitempty"`
	// Batch carries the full batch spec for batch submissions (nil for
	// ordinary jobs): an unfinished batch re-runs from it after a crash,
	// exactly like a single job re-runs from its JobSpec.
	Batch *BatchSpec `json:"batch,omitempty"`
}

// doneData is the payload of a done record.
type doneData struct {
	Result *JobResult `json:"result"`
	Cached bool       `json:"cached,omitempty"`
	// Memoize records whether the result was admitted to the result
	// cache (drain-degraded results are not), so replay restores the
	// cache faithfully.
	Memoize bool   `json:"memoize,omitempty"`
	Outcome string `json:"outcome,omitempty"`
}

// failedData is the payload of a failed record.
type failedData struct {
	Error string `json:"error"`
}

// pointData is the payload of a point record: the point's terminal
// wire-form result, exactly what the batch view will serve for it.
type pointData struct {
	Result BatchPointResult `json:"result"`
}

// RecoveryStats summarizes a journal replay for logs and /metrics.
type RecoveryStats struct {
	// Enabled reports whether a journal is attached at all.
	Enabled bool
	// ReplayDuration is the wall time spent replaying and rebuilding.
	ReplayDuration time.Duration
	// RecordsReplayed counts whole records decoded from the journal.
	RecordsReplayed int
	// TruncatedBytes and Corrupt mirror journal.Replay: a torn or
	// corrupt tail that was repaired by truncation.
	TruncatedBytes int64
	Corrupt        bool
	// JobsRestored counts finished jobs restored with their results.
	JobsRestored int
	// JobsRequeued counts unfinished jobs re-admitted to the queue.
	JobsRequeued int
}

// Open builds a Server like New and, when cfg.JournalPath is set,
// attaches the write-ahead journal: surviving records are replayed,
// finished jobs come back with their results (and re-populate the
// result cache), unfinished jobs are re-enqueued in submission order,
// and the log is compacted. The server reports not-ready until the
// replay finishes. Call Start afterwards to launch the workers.
func Open(cfg Config) (*Server, error) {
	s := New(cfg)
	if cfg.JournalPath == "" {
		s.ready.Store(true)
		return s, nil
	}
	start := time.Now()
	jnl, rep, err := journal.Open(cfg.JournalPath, journal.Options{
		Sync:            cfg.JournalSync,
		OnFsync:         s.metrics.FsyncObserved,
		WriteFault:      func() error { return s.inj.Err(faults.JournalWrite) },
		ShortWriteFault: func() bool { return s.inj.Fire(faults.JournalShortWrite) },
		SyncFault:       func() error { return s.inj.Err(faults.JournalSync) },
	})
	if err != nil {
		return nil, err
	}
	s.jnl = jnl
	if err := s.rebuild(rep); err != nil {
		jnl.Close()
		return nil, err
	}
	s.recovery.Enabled = true
	s.recovery.ReplayDuration = time.Since(start)
	s.recovery.RecordsReplayed = len(rep.Records)
	s.recovery.TruncatedBytes = rep.TruncatedBytes
	s.recovery.Corrupt = rep.Corrupt
	s.metrics.ReplayDone(s.recovery)
	s.ready.Store(true)
	return s, nil
}

// replayedJob accumulates one job's records during replay.
type replayedJob struct {
	submit     journal.Record
	spec       submitData
	running    bool
	checkpoint *Progress
	ckptRec    *journal.Record
	final      *journal.Record
	done       *doneData
	failed     *failedData
	// points holds journaled per-point completions of an unfinished
	// batch, by point index, with their records for compaction.
	points    map[int]*BatchPointResult
	pointRecs map[int]journal.Record
}

// rebuild reconstructs the job table from a replay, re-enqueues
// unfinished work, and compacts the journal down to the live records.
func (s *Server) rebuild(rep *journal.Replay) error {
	byID := map[string]*replayedJob{}
	var order []string
	for i := range rep.Records {
		rec := rep.Records[i]
		switch rec.Type {
		case recSubmit:
			var d submitData
			if err := json.Unmarshal(rec.Data, &d); err != nil {
				return fmt.Errorf("service: replay submit %s: %w", rec.Job, err)
			}
			if _, ok := byID[d.ID]; !ok {
				byID[d.ID] = &replayedJob{submit: rec, spec: d}
				order = append(order, d.ID)
			}
		case recRunning:
			if rj, ok := byID[rec.Job]; ok {
				rj.running = true
			}
		case recCheckpoint:
			if rj, ok := byID[rec.Job]; ok {
				var p Progress
				if err := json.Unmarshal(rec.Data, &p); err == nil {
					rj.checkpoint = &p
					rj.ckptRec = &rep.Records[i]
				}
			}
		case recDone:
			if rj, ok := byID[rec.Job]; ok && rj.final == nil {
				var d doneData
				if err := json.Unmarshal(rec.Data, &d); err != nil {
					return fmt.Errorf("service: replay done %s: %w", rec.Job, err)
				}
				rj.final = &rep.Records[i]
				rj.done = &d
			}
		case recFailed:
			if rj, ok := byID[rec.Job]; ok && rj.final == nil {
				var d failedData
				if err := json.Unmarshal(rec.Data, &d); err != nil {
					return fmt.Errorf("service: replay failed %s: %w", rec.Job, err)
				}
				rj.final = &rep.Records[i]
				rj.failed = &d
			}
		case recPoint:
			if rj, ok := byID[rec.Job]; ok && rj.final == nil {
				var d pointData
				if err := json.Unmarshal(rec.Data, &d); err != nil {
					return fmt.Errorf("service: replay point %s: %w", rec.Job, err)
				}
				if rj.points == nil {
					rj.points = map[int]*BatchPointResult{}
					rj.pointRecs = map[int]journal.Record{}
				}
				pr := d.Result
				rj.points[pr.Index] = &pr
				rj.pointRecs[pr.Index] = rep.Records[i]
			}
		}
	}

	var requeue []*Job
	var live []journal.Record
	for _, id := range order {
		rj := byID[id]
		job := &Job{
			ID:        rj.spec.ID,
			Spec:      rj.spec.Spec,
			Key:       rj.spec.Key,
			owner:     rj.spec.Owner,
			doneCh:    make(chan struct{}),
			recovered: true,
			submitted: rj.submit.At,
		}
		job.setRecord(recSubmit, rj.submit, nil)
		if rj.spec.Batch != nil {
			job.Spec = JobSpec{Kind: KindBatch}
			job.batch = s.restoreBatch(rj, job)
		}
		if rj.checkpoint != nil {
			p := *rj.checkpoint
			job.progress = &p
			job.recCkpt = rj.ckptRec
		}
		switch {
		case rj.done != nil:
			job.status = StatusDone
			job.result = rj.done.Result
			job.cached = rj.done.Cached
			job.finished = rj.final.At
			job.setRecord(recDone, *rj.final, *rj.done)
			close(job.doneCh)
			if rj.done.Memoize && rj.done.Result != nil {
				s.results.Put(job.Key, rj.done.Result)
			}
			s.recovery.JobsRestored++
		case rj.failed != nil:
			job.status = StatusFailed
			job.errMsg = rj.failed.Error
			job.finished = rj.final.At
			job.setRecord(recFailed, *rj.final, nil)
			close(job.doneCh)
			s.recovery.JobsRestored++
		default:
			// An unfinished batch's journaled point completions stay live
			// (restoreBatch put them on the batch): they are what stops a
			// replayed batch from re-solving work that already finished
			// before the crash.
			job.status = StatusQueued
			requeue = append(requeue, job)
		}
		recs, err := job.liveRecords()
		if err != nil {
			return err
		}
		live = append(live, recs...)
		s.jobs[job.ID] = job
		s.order = append(s.order, job.ID)
		if job.batch != nil {
			if n := batchIDSeq(job.ID); n > s.batchSeq.Load() {
				s.batchSeq.Store(n)
			}
		} else if n := idSeq(job.ID); n > s.seq.Load() {
			s.seq.Store(n)
		}
	}
	s.recovery.JobsRequeued = len(requeue)

	sort.SliceStable(live, func(i, k int) bool { return live[i].Seq < live[k].Seq })
	if err := s.jnl.Compact(live); err != nil {
		return err
	}

	// Re-admit unfinished jobs in submission order. The sends block when
	// the recovered backlog exceeds the queue depth, so they run on a
	// goroutine and drain as workers pick jobs up; a server stopped
	// before the backlog drains leaves the remainder journaled for the
	// next recovery.
	for _, job := range requeue {
		if job.batch != nil {
			s.inflightBatches[job.Key] = job.batch
			continue
		}
		s.inflight[job.Key] = job
	}
	// Count the whole backlog against the admission queue up front: new
	// submissions see 429 back-pressure until the recovered work drains
	// below the queue depth, and Submit's queue send can never block.
	s.mu.Lock()
	s.queued += len(requeue)
	s.mu.Unlock()
	s.jobWG.Add(len(requeue))
	if len(requeue) > 0 {
		go func() {
			for i, job := range requeue {
				select {
				case s.queue <- job:
				case <-s.stopWorkers:
					s.mu.Lock()
					s.queued -= len(requeue) - i
					s.mu.Unlock()
					for range requeue[i:] {
						s.jobWG.Done()
					}
					return
				}
			}
		}()
	}
	return nil
}

// restoreBatch rebuilds one batch's runtime state from its replayed
// records. A finished batch comes back with its per-point results, its
// event log re-synthesized (so a late stream reader still sees every
// point plus the summary), and its memoized points re-admitted to the
// result cache; an unfinished batch comes back with every point
// pending — runBatch re-checks the cache per point, so points that were
// journaled as done before the crash are not re-solved.
func (s *Server) restoreBatch(rj *replayedJob, job *Job) *Batch {
	spec := *rj.spec.Batch
	b := &Batch{
		ID:        rj.spec.ID,
		Key:       rj.spec.Key,
		job:       job,
		spec:      spec,
		recovered: true,
		status:    StatusQueued,
		submitted: rj.submit.At,
		notify:    make(chan struct{}),
	}
	if rj.done != nil && rj.done.Result != nil && rj.done.Result.Batch != nil {
		res := rj.done.Result.Batch
		b.status = StatusDone
		b.finished = rj.final.At
		b.draining = res.Summary.Draining
		b.points = make([]*batchPoint, len(res.Points))
		for i, pr := range res.Points {
			b.points[i] = &batchPoint{
				spec:        JobSpec{Kind: KindSelect, RequiredGain: pr.RequiredGain},
				key:         pr.Key,
				dup:         -1,
				done:        true,
				disposition: pr.Disposition,
				sel:         pr.Selection,
				errMsg:      pr.Error,
				memoized:    pr.Memoized,
			}
			pr := pr
			b.emitLocked(BatchEvent{Type: EventPoint, Point: i, RequiredGain: pr.RequiredGain, Result: &pr})
			if pr.Memoized && pr.Selection != nil {
				s.results.Put(pr.Key, &JobResult{Kind: KindSelect, Selection: pr.Selection})
			}
		}
		sum := res.Summary
		b.emitLocked(BatchEvent{Type: EventSummary, Point: -1, Summary: &sum})
	} else {
		b.points = make([]*batchPoint, len(spec.Points))
		b.remaining = len(spec.Points)
		firstByKey := map[string]int{}
		for i := range spec.Points {
			p := &batchPoint{dup: -1, disposition: DispositionPending}
			b.points[i] = p
			merged, err := spec.point(i)
			if err == nil {
				p.spec = merged
				p.key, err = merged.resultKey()
			}
			if err != nil {
				// The spec validated at the original submit; a point that
				// no longer resolves (e.g. a workload removed across the
				// restart) fails in place instead of poisoning the batch.
				p.done = true
				p.disposition = DispositionFailed
				p.errMsg = err.Error()
				b.remaining--
				continue
			}
			if first, ok := firstByKey[p.key]; ok {
				p.dup = first
			} else {
				firstByKey[p.key] = i
			}
		}
		// Apply journaled per-point completions: those points replay as
		// done with their recorded dispositions (and re-populate the
		// result cache when they were memoized) instead of re-solving.
		// Their duplicates settle with them, exactly as they did live.
		if len(rj.points) > 0 {
			idxs := make([]int, 0, len(rj.points))
			for idx := range rj.points {
				idxs = append(idxs, idx)
			}
			sort.Ints(idxs)
			for _, idx := range idxs {
				if idx < 0 || idx >= len(b.points) {
					continue
				}
				pr := rj.points[idx]
				if pr.Disposition == "remote" {
					pr.Disposition = DispositionSolved // solved by a peer under the retired batch fan-out
				}
				settle := func(i int, disp string, memoized bool) {
					q := b.points[i]
					if q.done {
						return
					}
					q.done = true
					q.disposition = disp
					q.sel = pr.Selection
					q.errMsg = pr.Error
					q.memoized = memoized
					b.remaining--
					b.emitLocked(BatchEvent{
						Type:         EventPoint,
						Point:        i,
						RequiredGain: q.spec.RequiredGain,
						Result: &BatchPointResult{
							Index:        i,
							RequiredGain: q.spec.RequiredGain,
							Key:          q.key,
							Disposition:  disp,
							Selection:    pr.Selection,
							Error:        pr.Error,
							Memoized:     memoized,
						},
					})
				}
				settle(idx, pr.Disposition, pr.Memoized)
				for j := idx + 1; j < len(b.points); j++ {
					if b.points[j].dup == idx {
						settle(j, DispositionDuplicate, false)
					}
				}
				if pr.Memoized && pr.Selection != nil {
					s.results.Put(pr.Key, &JobResult{Kind: KindSelect, Selection: pr.Selection})
				}
				b.setPointRecord(idx, rj.pointRecs[idx])
			}
		}
	}
	s.batches[b.ID] = b
	s.batchOrder = append(s.batchOrder, b.ID)
	return b
}

// batchIDSeq extracts the numeric suffix of a generated batch ID
// ("b%06d", optionally node-prefixed).
func batchIDSeq(id string) uint64 {
	if i := strings.LastIndexByte(id, 'b'); i > 0 {
		id = id[i:]
	}
	var n uint64
	if _, err := fmt.Sscanf(id, "b%d", &n); err != nil {
		return 0
	}
	return n
}

// idSeq extracts the numeric suffix of a generated job ID ("j%06d",
// optionally node-prefixed as "<name>-j%06d"), so restored servers keep
// allocating fresh IDs.
func idSeq(id string) uint64 {
	if i := strings.LastIndexByte(id, 'j'); i > 0 {
		id = id[i:]
	}
	var n uint64
	if _, err := fmt.Sscanf(id, "j%d", &n); err != nil {
		return 0
	}
	return n
}

// Recovery returns the stats of the journal replay that built this
// server (zero-valued when no journal is configured).
func (s *Server) Recovery() RecoveryStats { return s.recovery }

// journalAppend writes one record, remembering it on the job for
// compaction. Journal failures are counted and logged into metrics but
// deliberately do not fail the job: partitad favors availability, and a
// sick journal degrades durability, not service. When an append leaves
// the journal degraded (unrepairable write, failed fsync), a compaction
// rewrites the live records — all held in memory — to a fresh synced
// file and the failed record is retried once; if the disk is truly sick
// the journal stays degraded, which /metrics and /readyz surface.
func (s *Server) journalAppend(job *Job, typ string, data any) {
	if s.jnl == nil {
		return
	}
	if err := s.appendRecord(job, typ, data); err != nil {
		s.metrics.JournalError()
		if s.jnl.Degraded() {
			s.compactJournal()
			if !s.jnl.Degraded() {
				if err := s.appendRecord(job, typ, data); err != nil {
					s.metrics.JournalError()
				}
			}
		}
		return
	}
	if s.cfg.CompactEvery > 0 && s.jnl.AppendsSinceCompact() >= uint64(s.cfg.CompactEvery) {
		s.compactJournal()
	}
}

// appendRecord journals one record and remembers it on the job, both
// under jmu: a concurrent compaction snapshots live records under the
// same lock, so it can never miss a record that has already reached the
// journal (which would silently drop it from the rewritten log).
func (s *Server) appendRecord(job *Job, typ string, data any) error {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	rec, err := s.jnl.Append(typ, job.ID, data)
	if err != nil {
		return err
	}
	job.setRecord(typ, rec, data)
	return nil
}

// journalAppendPoint is journalAppend for a batch point completion: the
// record is remembered on the batch keyed by point index (not on the
// job, whose record table holds one slot per type), so compaction keeps
// every completed point of an unfinished batch. Same degraded-journal
// retry policy as journalAppend.
func (s *Server) journalAppendPoint(job *Job, idx int, data pointData) {
	if s.jnl == nil || job.batch == nil {
		return
	}
	if err := s.appendPointRecord(job, idx, data); err != nil {
		s.metrics.JournalError()
		if s.jnl.Degraded() {
			s.compactJournal()
			if !s.jnl.Degraded() {
				if err := s.appendPointRecord(job, idx, data); err != nil {
					s.metrics.JournalError()
				}
			}
		}
		return
	}
	if s.cfg.CompactEvery > 0 && s.jnl.AppendsSinceCompact() >= uint64(s.cfg.CompactEvery) {
		s.compactJournal()
	}
}

// appendPointRecord is appendRecord's batch-point twin, under the same
// jmu ordering contract.
func (s *Server) appendPointRecord(job *Job, idx int, data pointData) error {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	rec, err := s.jnl.Append(recPoint, job.ID, data)
	if err != nil {
		return err
	}
	job.batch.setPointRecord(idx, rec)
	return nil
}

// compactJournal rewrites the journal down to the records that still
// matter: for every tracked job, its submit record plus its final state
// (or latest checkpoint while unfinished). Memory is the source of
// truth: the payloads come from the jobs, never from the old file, so a
// degraded journal heals by compaction.
func (s *Server) compactJournal() {
	if s.jnl == nil {
		return
	}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	var live []journal.Record
	for _, job := range jobs {
		recs, err := job.liveRecords()
		if err != nil {
			s.metrics.JournalError()
			return
		}
		live = append(live, recs...)
	}
	sort.SliceStable(live, func(i, k int) bool { return live[i].Seq < live[k].Seq })
	if err := s.jnl.Compact(live); err != nil {
		s.metrics.JournalError()
	}
}

// CloseJournal syncs and closes the journal, if any. Called by the
// daemon after a drain.
func (s *Server) CloseJournal() error {
	if s.jnl == nil {
		return nil
	}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	return s.jnl.Close()
}
