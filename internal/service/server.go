package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"partita"
	"partita/internal/faults"
	"partita/internal/journal"
)

// DeadlineHeader carries the submitter's remaining deadline budget, in
// integer milliseconds, on forwarded requests. A relative duration —
// not an absolute instant — so it survives clock skew between nodes.
// The receiving node clamps the forwarded solve to it, which keeps a
// failover hop from silently inflating the caller's deadline to the
// target node's default; results reached under such a clamp are
// memoized only when proven (see runJob).
const DeadlineHeader = "X-Partitad-Deadline"

// Config tunes a Server. Zero fields take the documented defaults.
type Config struct {
	// Workers is the solver pool size (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker;
	// submissions beyond it are rejected with 503 (default 64).
	QueueDepth int
	// DesignCacheSize bounds the analyzed-design LRU (default 32).
	DesignCacheSize int
	// ResultCacheSize bounds the finished-result LRU (default 256).
	ResultCacheSize int
	// DefaultTimeout applies to jobs that set no TimeoutMs (0 = none).
	DefaultTimeout time.Duration
	// MaxTimeout caps every job deadline (default 2m; jobs asking for
	// more are clamped, and jobs asking for none inherit it).
	MaxTimeout time.Duration
	// MaxJobs bounds how many jobs are retained for polling; the oldest
	// finished jobs are evicted first (default 1024).
	MaxJobs int
	// PortfolioGap is the acceptability threshold applied to portfolio
	// jobs whose spec leaves Gap unset: a candidate within this proven
	// relative area gap of optimal is delivered as the first answer
	// while the exact proof keeps running (default 0.05).
	PortfolioGap float64
	// MaxBatchPoints caps how many points one POST /v1/batches may carry
	// (default 4096); oversized batches are rejected with 413.
	MaxBatchPoints int
	// MaxBatchBytes caps the POST /v1/batches request body (default
	// 32 MiB; batches carry inline programs and catalogs, so they get a
	// higher ceiling than single submits).
	MaxBatchBytes int64
	// MaxBatches bounds how many batches are retained for polling and
	// streaming; the oldest finished batches are evicted first
	// (default 128).
	MaxBatches int
	// NodeName, when non-empty, prefixes generated job IDs
	// ("<name>-j000001" instead of "j000001") so IDs are unique across
	// a cluster and pollers can route a job ID back to the node that
	// accepted it. Single-node daemons leave it empty.
	NodeName string
	// JournalPath, when non-empty, enables the crash-safety write-ahead
	// log: job lifecycle records are appended there and replayed by Open
	// after a restart. Empty disables journaling (no durability, no
	// overhead).
	JournalPath string
	// JournalSync is the fsync policy (default journal.SyncAlways).
	JournalSync journal.SyncPolicy
	// CheckpointEvery throttles journaled incumbent checkpoints per job
	// (default 100ms between records).
	CheckpointEvery time.Duration
	// CompactEvery triggers a journal compaction after that many
	// appends (default 4096).
	CompactEvery int
	// Faults is the optional fault injector (nil = disabled).
	Faults *faults.Injector
	// RemoteLookup, when set, is consulted by a worker after a local
	// result-cache miss and before solving: returning a result
	// short-circuits the solve and completes the job as cached. The
	// cluster layer wires this to peer result-cache peeks so a result
	// cached on any node serves the whole ring; the hook keeps that
	// routing concern out of the execution core.
	RemoteLookup func(key string) (*JobResult, bool)
	// OwnerOf, when set, reports cluster routing ownership for each
	// accepted job; it is recorded on the job, surfaced on the poll
	// endpoints, and journaled with the submit record so a restarted
	// node knows which jobs it accepted on another owner's behalf.
	OwnerOf func(key string) *Ownership
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DesignCacheSize <= 0 {
		c.DesignCacheSize = 32
	}
	if c.ResultCacheSize <= 0 {
		c.ResultCacheSize = 256
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.PortfolioGap <= 0 {
		c.PortfolioGap = 0.05
	}
	if c.MaxBatchPoints <= 0 {
		c.MaxBatchPoints = 4096
	}
	if c.MaxBatchBytes <= 0 {
		c.MaxBatchBytes = 32 << 20
	}
	if c.MaxBatches <= 0 {
		c.MaxBatches = 128
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 100 * time.Millisecond
	}
	if c.CompactEvery <= 0 {
		c.CompactEvery = 4096
	}
	return c
}

// Admission-control sentinels; the HTTP layer maps both to 503.
var (
	// ErrDraining reports that the server is shutting down and accepts
	// no new jobs.
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrQueueFull reports that the admission queue is at capacity.
	ErrQueueFull = errors.New("service: job queue full")
)

// Server is the partitad core: job store, admission queue, worker pool,
// content-addressed caches, and the HTTP surface. Create with New,
// launch the pool with Start, serve the Handler, and stop with
// Shutdown.
type Server struct {
	cfg     Config
	metrics *Metrics
	designs *Cache
	results *Cache
	mux     *http.ServeMux

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string        // job IDs in submission order
	inflight map[string]*Job // queued/running jobs by result key
	queued   int             // jobs admitted but not yet picked up by a worker

	// Batch submissions (see batch.go / stream.go).
	batches         map[string]*Batch
	batchOrder      []string          // batch IDs in submission order
	inflightBatches map[string]*Batch // unfinished batches by batch key
	batchSeq        atomic.Uint64
	streams         atomic.Int64 // live SSE event streams

	queue       chan *Job
	drain       chan struct{}
	stopWorkers chan struct{}
	jobWG       sync.WaitGroup // queued + running jobs
	workerWG    sync.WaitGroup
	draining    atomic.Bool
	leaving     atomic.Bool
	ready       atomic.Bool
	busy        atomic.Int64
	seq         atomic.Uint64
	startOnce   sync.Once
	drainOnce   sync.Once
	stopOnce    sync.Once

	// Crash safety and fault injection (see recover.go).
	inj      *faults.Injector
	jnl      *journal.Journal
	jmu      sync.Mutex // serializes journal appends with compaction snapshots
	recovery RecoveryStats
}

// New builds a Server (workers are not started yet; call Start).
// Journaling is attached by Open; New alone never touches disk.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:             cfg,
		metrics:         NewMetrics(),
		designs:         NewCache(cfg.DesignCacheSize),
		results:         NewCache(cfg.ResultCacheSize),
		jobs:            map[string]*Job{},
		inflight:        map[string]*Job{},
		batches:         map[string]*Batch{},
		inflightBatches: map[string]*Batch{},
		queue:           make(chan *Job, cfg.QueueDepth),
		drain:           make(chan struct{}),
		stopWorkers:     make(chan struct{}),
		inj:             cfg.Faults,
	}
	// A journal-less server is ready immediately; Open flips this after
	// the replay finishes.
	s.ready.Store(cfg.JournalPath == "")
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("POST /v1/jobs/{id}/edits", s.handleEdit)
	s.mux.HandleFunc("POST /v1/batches", s.handleBatchSubmit)
	s.mux.HandleFunc("GET /v1/batches", s.handleBatchList)
	s.mux.HandleFunc("GET /v1/batches/{id}", s.handleBatchGet)
	s.mux.HandleFunc("GET /v1/batches/{id}/events", s.handleBatchEvents)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	return s
}

// now is the service clock: wall time, plus the injected skew when the
// clock.skew fault is configured.
func (s *Server) now() time.Time { return s.inj.Now() }

// Start launches the worker pool. Safe to call once; later calls are
// no-ops.
func (s *Server) Start() {
	s.startOnce.Do(func() {
		for i := 0; i < s.cfg.Workers; i++ {
			s.workerWG.Add(1)
			go s.worker()
		}
	})
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP makes the Server itself an http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown drains gracefully: new submissions are rejected, every
// queued and running job finishes (running solves see an expired
// deadline and return their best incumbents), then the workers stop.
// The context bounds how long to wait for the drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.stopOnce.Do(func() { close(s.stopWorkers) })
	s.workerWG.Wait()
	return nil
}

// Submit validates, content-addresses, and admits one job. Cached
// results complete the job immediately; an identical in-flight job is
// returned instead of enqueuing a duplicate (coalescing). The error is
// ErrDraining or ErrQueueFull for admission rejections, anything else
// for invalid specs.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if s.draining.Load() {
		s.metrics.JobRejected()
		return nil, ErrDraining
	}
	key, err := spec.resultKey()
	if err != nil {
		return nil, err
	}
	now := s.now()
	job := &Job{
		ID:        s.newJobID(),
		Spec:      spec,
		Key:       key,
		doneCh:    make(chan struct{}),
		status:    StatusQueued,
		submitted: now,
	}
	// Ownership is resolved once, at acceptance: the owner recorded here
	// is the routing decision this node acted on, even if ring
	// membership changes later.
	if s.cfg.OwnerOf != nil {
		job.owner = s.cfg.OwnerOf(key)
	}
	if v, ok := s.results.Get(key); ok {
		job.complete(v.(*JobResult), true, now)
		s.track(job)
		s.journalAppend(job, recSubmit, submitData{ID: job.ID, Key: key, Spec: spec, Owner: job.owner})
		s.journalAppend(job, recDone, doneData{Result: job.Result(), Cached: true, Memoize: true, Outcome: "cached"})
		s.metrics.JobSubmitted(string(spec.Kind))
		return job, nil
	}
	s.mu.Lock()
	if prev, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		s.metrics.JobCoalesced()
		return prev, nil
	}
	// Admission is a counter check, not a channel send, so the job can be
	// journaled before it becomes visible to any worker: the submit
	// record must reach the log ahead of the running/done records a fast
	// worker would append, or replay drops the job's journaled result.
	if s.inj.Fire(faults.QueueFull) || s.queued >= cap(s.queue) {
		s.mu.Unlock()
		s.metrics.JobRejected()
		return nil, ErrQueueFull
	}
	s.inflight[key] = job
	s.queued++
	s.mu.Unlock()
	s.jobWG.Add(1)
	s.track(job)
	// The job is durably accepted only once this append is synced; the
	// 202 response follows it, so a crash can never lose an acked job.
	s.journalAppend(job, recSubmit, submitData{ID: job.ID, Key: key, Spec: spec, Owner: job.owner})
	s.metrics.JobSubmitted(string(spec.Kind))
	// Never blocks: queued <= cap(queue) is enforced under s.mu above,
	// and workers decrement only after receiving.
	s.queue <- job
	return job, nil
}

// newJobID allocates the next job ID, prefixed with the node name in
// cluster mode.
func (s *Server) newJobID() string {
	n := s.seq.Add(1)
	if s.cfg.NodeName != "" {
		return fmt.Sprintf("%s-j%06d", s.cfg.NodeName, n)
	}
	return fmt.Sprintf("j%06d", n)
}

// CachedResult returns the memoized result for a content address, if
// any. The cluster layer serves it to peers peeking this node's cache.
func (s *Server) CachedResult(key string) (*JobResult, bool) {
	v, ok := s.results.Get(key)
	if !ok {
		return nil, false
	}
	return v.(*JobResult), true
}

// ResultKey computes the content address a submission of spec would be
// stored under — the cluster routing key. It validates the spec the
// same way Submit does.
func ResultKey(spec JobSpec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	return spec.resultKey()
}

// Job returns a tracked job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// track retains the job for polling, evicting the oldest finished jobs
// beyond the retention bound.
func (s *Server) track(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	if len(s.order) <= s.cfg.MaxJobs {
		return
	}
	kept := s.order[:0]
	excess := len(s.order) - s.cfg.MaxJobs
	for _, id := range s.order {
		if excess > 0 && s.jobs[id].Done() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		select {
		case job := <-s.queue:
			s.mu.Lock()
			s.queued--
			s.mu.Unlock()
			// Batch jobs manage their own completion accounting: the
			// batch finishes (and releases its jobWG slot) when its last
			// point settles, which may be after this worker returns if
			// points are coalesced onto other in-flight jobs.
			if job.batch != nil {
				s.runBatch(job)
			} else {
				s.runJob(job)
			}
		case <-s.stopWorkers:
			return
		}
	}
}

func (s *Server) runJob(job *Job) {
	defer s.jobWG.Done()
	s.busy.Add(1)
	defer s.busy.Add(-1)
	// A panicking solve (or an injected worker.panic) must not take the
	// worker down with it: the job fails, the pool keeps serving.
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			delete(s.inflight, job.Key)
			s.mu.Unlock()
			err := fmt.Errorf("service: worker panic: %v", r)
			job.fail(err, s.now())
			s.journalAppend(job, recFailed, failedData{Error: err.Error()})
			s.metrics.PanicRecovered()
			s.metrics.JobCompleted("error", 0)
		}
	}()
	job.setRunning(s.now())
	s.journalAppend(job, recRunning, nil)
	if s.inj.Fire(faults.WorkerPanic) {
		panic("faults: injected worker.panic")
	}
	if s.inj.Fire(faults.SolverStall) {
		time.Sleep(s.inj.Duration(faults.SolverStallDelay, 25*time.Millisecond))
	}
	start := time.Now()
	// Before paying for a solve, peek the peer result caches: a hit
	// anywhere in the cluster serves everywhere. The local result cache
	// was already missed at Submit time (a hit completes the job there).
	if s.cfg.RemoteLookup != nil {
		if res, ok := s.cfg.RemoteLookup(job.Key); ok && res != nil {
			s.mu.Lock()
			delete(s.inflight, job.Key)
			s.mu.Unlock()
			s.results.Put(job.Key, res)
			job.complete(res, true, s.now())
			s.metrics.JobCompleted("cached", time.Since(start).Seconds())
			s.journalAppend(job, recDone, doneData{Result: res, Cached: true, Memoize: true, Outcome: "cached"})
			return
		}
	}
	s.metrics.SolveStarted()
	res, outcome, err := s.execute(job)
	elapsed := time.Since(start).Seconds()
	s.mu.Lock()
	delete(s.inflight, job.Key)
	s.mu.Unlock()
	if err != nil {
		job.fail(err, s.now())
		s.journalAppend(job, recFailed, failedData{Error: err.Error()})
		s.metrics.JobCompleted("error", elapsed)
		return
	}
	// Results produced while draining may be artificially degraded by
	// the shutdown deadline; never memoize those. A solve clamped to a
	// forwarded caller's inherited deadline memoizes only proven
	// outcomes: an anytime incumbent reached under someone else's
	// shrunken budget must not answer full-budget requests that share
	// the content address. A memoized result is cached before the job
	// shows as done, so whoever sees it done can find it in the cache.
	memoize := !s.draining.Load() && (!job.deadlineClamped || provenOutcome(outcome))
	if memoize {
		s.results.Put(job.Key, res)
	}
	job.complete(res, false, s.now())
	s.metrics.JobCompleted(outcome, elapsed)
	s.journalAppend(job, recDone, doneData{Result: res, Memoize: memoize, Outcome: outcome})
}

// design returns the analyzed design for the job's program, memoized in
// the content-addressed design cache.
func (s *Server) design(spec JobSpec) (*partita.Design, error) {
	source, root, cat, opt, tags, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	key := partita.CanonicalHash(source, root, cat, opt, tags...)
	if v, ok := s.designs.Get(key); ok {
		return v.(*partita.Design), nil
	}
	d, err := partita.Analyze(source, root, cat, opt)
	if err != nil {
		return nil, err
	}
	s.designs.Put(key, d)
	return d, nil
}

// execute runs one job to completion under its deadline, node budget,
// and the server drain.
func (s *Server) execute(job *Job) (*JobResult, string, error) {
	spec := job.Spec
	design, err := s.design(spec)
	if err != nil {
		return nil, "", err
	}
	if spec.Kind == KindAnalyze {
		return &JobResult{Kind: spec.Kind, Analyze: NewAnalyzeResult(design)}, "optimal", nil
	}

	ctx, stop := withDrain(context.Background(), s.drain)
	defer stop()
	timeout := s.jobTimeout(spec)
	if d := spec.inheritDeadline; d > 0 && (timeout <= 0 || d < timeout) {
		timeout = d
		job.deadlineClamped = true
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	bud := partita.Budget{MaxNodes: spec.MaxNodes}

	switch spec.Kind {
	case KindSelect:
		if spec.Mode == ModePortfolio {
			return s.executePortfolio(ctx, job, design, bud)
		}
		var sel *partita.Selection
		if len(spec.PerPath) > 0 {
			sel, err = design.SelectPerPathCtx(ctx, spec.RequiredGain, spec.PerPath, bud)
		} else {
			sel, err = design.SelectCtxObserve(ctx, spec.RequiredGain, bud, s.observeJob(job))
		}
		if err != nil {
			return nil, "", err
		}
		return &JobResult{Kind: spec.Kind, Selection: NewSelectionResult(sel)}, Outcome(sel), nil
	case KindSweep:
		points := spec.Points
		if points <= 0 {
			points = 5
		}
		pts, err := design.SweepCtxObserve(ctx, points, bud, s.observeJob(job))
		if err != nil {
			return nil, "", err
		}
		outcome := "optimal"
		for _, p := range pts {
			switch o := Outcome(p.Sel); o {
			case "degraded":
				outcome = o
			case "feasible":
				if outcome == "optimal" {
					outcome = o
				}
			}
		}
		return &JobResult{Kind: spec.Kind, Sweep: NewSweepResult(pts)}, outcome, nil
	}
	return nil, "", fmt.Errorf("service: unhandled job kind %q", spec.Kind)
}

// executePortfolio runs one portfolio-mode select job: fold the spec's
// edit history into one delta and race the engines on the edited
// problem.
func (s *Server) executePortfolio(ctx context.Context, job *Job, design *partita.Design, bud partita.Budget) (*JobResult, string, error) {
	spec := job.Spec
	gap := s.cfg.PortfolioGap
	if spec.Gap != nil {
		gap = *spec.Gap
	}
	opt := partita.PortfolioOptions{
		Gap:     gap,
		Budget:  bud,
		PerPath: spec.PerPath,
		Observe: s.observeJob(job),
	}
	delta := partita.Delta{}
	for _, e := range spec.Edits {
		delta = delta.Merge(e)
	}
	if delta.Required == nil {
		rq := spec.RequiredGain
		delta.Required = &rq
	}
	res, err := design.Reselect(ctx, nil, delta, opt)
	if err != nil {
		return nil, "", err
	}
	s.metrics.PortfolioWin(string(res.FirstEngine), res.First.Seconds())
	return &JobResult{Kind: spec.Kind, Selection: NewPortfolioSelectionResult(res)}, Outcome(res.Sel), nil
}

// observeJob folds solver incumbents into the job's poll snapshot and,
// when a journal is attached, persists throttled incumbent checkpoints
// so a crash mid-solve recovers to at least the last checkpoint.
func (s *Server) observeJob(job *Job) func(partita.Incumbent) {
	return func(in partita.Incumbent) {
		job.observe(in)
		if s.jnl == nil {
			return
		}
		if job.checkpointDue(time.Now(), s.cfg.CheckpointEvery) {
			s.journalAppend(job, recCheckpoint, job.progressSnapshot())
		}
	}
}

// ---- HTTP handlers ----

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad job spec: %w", err))
		return
	}
	// A forwarded request may carry the submitter's remaining budget;
	// the inherited deadline rides outside the content address (it is a
	// cap, not part of the problem) and clamps the solve in execute.
	if v := r.Header.Get(DeadlineHeader); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 {
			spec.inheritDeadline = time.Duration(ms) * time.Millisecond
		}
	}
	job, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Back-pressure, not failure: the client should retry after a
		// beat. Submissions are idempotent (content-addressed), so
		// retrying is always safe.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	code := http.StatusAccepted
	if job.Done() {
		code = http.StatusOK
	}
	writeJSON(w, code, job.View())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.jobs[id].View())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

// maxLongPollWait caps the ?wait= long-poll duration.
const maxLongPollWait = 30 * time.Second

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no such job %q", r.PathValue("id")))
		return
	}
	// ?wait=10s long-polls until the job finishes, the wait elapses, or
	// the server begins draining — the drain case is what lets idle
	// pollers disconnect promptly on SIGTERM instead of pinning the
	// HTTP server for the full drain deadline.
	if wait := r.URL.Query().Get("wait"); wait != "" && !job.Done() {
		d, err := time.ParseDuration(wait)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad wait %q", wait))
			return
		}
		if d > maxLongPollWait {
			d = maxLongPollWait
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-job.DoneCh():
		case <-t.C:
		case <-r.Context().Done():
		case <-s.drain:
		}
	}
	writeJSON(w, http.StatusOK, job.View())
}

// EditRequest is the body of POST /v1/jobs/{id}/edits: the edits to
// apply on top of the parent job's problem, plus optional overrides of
// the derived job's portfolio gap and budgets.
type EditRequest struct {
	// Edits is applied in order after the parent's own edit history.
	Edits []partita.Delta `json:"edits"`
	// Gap overrides the portfolio acceptability threshold (nil keeps
	// the parent's, or the server default).
	Gap *float64 `json:"gap,omitempty"`
	// TimeoutMs and MaxNodes override the parent's budgets when non-nil.
	TimeoutMs *int64 `json:"timeoutMs,omitempty"`
	MaxNodes  *int   `json:"maxNodes,omitempty"`
	// Parallelism is accepted and ignored.
	//
	// Deprecated: kept so existing clients' requests still decode.
	Parallelism *int `json:"parallelism,omitempty"`
}

// handleEdit derives a new job from a finished select job by appending
// edits to its spec. The derived spec is self-contained — the parent's
// full edit history plus the new edits ride along — so it journals,
// replays, and content-addresses like any other submission; the parent
// link records the job's lineage and is part of the content address.
func (s *Server) handleEdit(w http.ResponseWriter, r *http.Request) {
	parent, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no such job %q", r.PathValue("id")))
		return
	}
	var req EditRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad edit request: %w", err))
		return
	}
	if len(req.Edits) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: edit request carries no edits"))
		return
	}
	if parent.Spec.Kind != KindSelect {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: job %s is a %s job; edits apply to select jobs", parent.ID, parent.Spec.Kind))
		return
	}
	if !parent.Done() {
		writeError(w, http.StatusConflict, fmt.Errorf("service: job %s has not finished; edit the settled result", parent.ID))
		return
	}

	spec := parent.Spec
	spec.Mode = ModePortfolio
	spec.Edits = append(append([]partita.Delta(nil), parent.Spec.Edits...), req.Edits...)
	spec.ParentKey = parent.Key
	if req.Gap != nil {
		spec.Gap = req.Gap
	}
	if req.TimeoutMs != nil {
		spec.TimeoutMs = *req.TimeoutMs
	}
	if req.MaxNodes != nil {
		spec.MaxNodes = *req.MaxNodes
	}

	job, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	code := http.StatusAccepted
	if job.Done() {
		code = http.StatusOK
	}
	writeJSON(w, code, job.View())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	dh, dm := s.designs.Stats()
	rh, rm := s.results.Stats()
	s.mu.Lock()
	tracked := len(s.jobs)
	batches := len(s.batches)
	s.mu.Unlock()
	g := Gauges{
		Workers:        s.cfg.Workers,
		WorkersBusy:    int(s.busy.Load()),
		QueueDepth:     len(s.queue),
		Draining:       s.draining.Load(),
		JobsTracked:    tracked,
		FaultCounts:    s.inj.Counts(),
		BatchesTracked: batches,
		StreamsActive:  int(s.streams.Load()),
	}
	if s.jnl != nil {
		g.JournalEnabled = true
		g.JournalCompactions = s.jnl.Compactions()
		g.JournalDegraded = s.jnl.Degraded()
	}
	g.Ready = s.unreadyReason() == ""
	s.metrics.WritePrometheus(w, g, []cacheStat{
		{name: "design", hits: dh, misses: dm, entries: s.designs.Len()},
		{name: "result", hits: rh, misses: rm, entries: s.results.Len()},
	})
}

// handleHealth is the liveness probe: it answers 200 for as long as the
// process can serve HTTP at all, even while replaying the journal or
// draining — restartable conditions are the readiness probe's business.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     status,
		"workers":    s.cfg.Workers,
		"queueDepth": len(s.queue),
	})
}

// Readiness reasons reported by /readyz. Exactly one applies at a time;
// when several conditions hold the most specific wins (a node that is
// leaving the ring is also draining, but "leaving-ring" is the reason
// operators and peers need).
const (
	// ReasonReplaying: the journal replay has not finished; the job
	// table is still being rebuilt.
	ReasonReplaying = "replaying"
	// ReasonLeavingRing: the node announced its departure from the
	// cluster ring ahead of a drain.
	ReasonLeavingRing = "leaving-ring"
	// ReasonDraining: shutdown in progress, no new jobs accepted.
	ReasonDraining = "draining"
	// ReasonJournalDegraded: appends are suspended after an
	// unrepairable journal failure; accepted jobs would not be durable.
	ReasonJournalDegraded = "journal-degraded"
)

// unreadyReason reports why the server is not ready ("" = ready).
func (s *Server) unreadyReason() string {
	switch {
	case !s.ready.Load():
		return ReasonReplaying
	case s.leaving.Load():
		return ReasonLeavingRing
	case s.draining.Load():
		return ReasonDraining
	case s.jnl != nil && s.jnl.Degraded():
		return ReasonJournalDegraded
	}
	return ""
}

// handleReady is the readiness probe: 503 during journal replay, during
// drain (and ring departure), and while the journal is degraded, so
// load balancers stop routing before shutdown, never route to a daemon
// still rebuilding its job table, and steer work away from a node that
// can no longer make jobs durable. The body names the reason so an
// operator staring at a 503 knows which of those it is.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{"status": "ready", "ready": true}
	code := http.StatusOK
	if reason := s.unreadyReason(); reason != "" {
		code = http.StatusServiceUnavailable
		body["status"] = reason
		body["reason"] = reason
		body["ready"] = false
	}
	writeJSON(w, code, body)
}
