package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// solveBuckets are the latency histogram bucket upper bounds in seconds.
// They span the tens of microseconds a portfolio race takes to its
// first answer when the capacity bound's witness wins, sub-millisecond
// solves, and the deadline regime where jobs degrade to anytime
// incumbents.
var solveBuckets = []float64{0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// fsyncBuckets are the journal fsync latency buckets in seconds: from
// page-cache-speed flushes to spinning-rust outliers.
var fsyncBuckets = []float64{0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5}

// Metrics accumulates the daemon's counters and the solve-latency
// histogram. Gauges (queue depth, busy workers, cache sizes) are
// sampled from the live server at render time instead of being stored.
type Metrics struct {
	mu        sync.Mutex
	submitted map[string]uint64 // by job kind
	completed map[string]uint64 // by outcome: optimal|feasible|degraded|infeasible|error
	rejected  uint64
	coalesced uint64
	bucketN   []uint64
	solveSum  float64
	solveN    uint64

	// Crash-safety and fault-injection counters.
	journalErrors uint64
	panics        uint64
	// solvesStarted counts jobs that actually entered a solve — cache
	// hits (local or peer) never increment it, which is what lets the
	// cluster chaos harness assert "served without re-solving".
	solvesStarted uint64
	fsyncBucketN  []uint64
	fsyncSum      float64
	fsyncN        uint64
	replay        RecoveryStats

	// Batch API counters (see batch.go / stream.go).
	batchesSubmitted uint64
	batchesCompleted uint64
	batchPointsIn    uint64
	batchPoints      map[string]uint64 // by disposition
	streamEvents     uint64

	// Portfolio-mode counters: race wins by engine, and the
	// time-to-first-acceptable histogram.
	portfolioWins    map[string]uint64 // by engine: capacity|seed|greedy|exact
	portfolioBucketN []uint64
	portfolioSum     float64
	portfolioN       uint64
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		submitted:        map[string]uint64{},
		completed:        map[string]uint64{},
		batchPoints:      map[string]uint64{},
		portfolioWins:    map[string]uint64{},
		bucketN:          make([]uint64, len(solveBuckets)),
		fsyncBucketN:     make([]uint64, len(fsyncBuckets)),
		portfolioBucketN: make([]uint64, len(solveBuckets)),
	}
}

// JournalError counts one failed journal append or compaction.
func (m *Metrics) JournalError() {
	m.mu.Lock()
	m.journalErrors++
	m.mu.Unlock()
}

// PanicRecovered counts one worker panic contained by the pool.
func (m *Metrics) PanicRecovered() {
	m.mu.Lock()
	m.panics++
	m.mu.Unlock()
}

// FsyncObserved records one journal fsync latency.
func (m *Metrics) FsyncObserved(d time.Duration) {
	secs := d.Seconds()
	m.mu.Lock()
	for i, ub := range fsyncBuckets {
		if secs <= ub {
			m.fsyncBucketN[i]++
		}
	}
	m.fsyncSum += secs
	m.fsyncN++
	m.mu.Unlock()
}

// ReplayDone records the startup recovery stats rendered on /metrics.
func (m *Metrics) ReplayDone(r RecoveryStats) {
	m.mu.Lock()
	m.replay = r
	m.mu.Unlock()
}

// SolveStarted counts one job entering an actual solve (not answered
// from any cache).
func (m *Metrics) SolveStarted() {
	m.mu.Lock()
	m.solvesStarted++
	m.mu.Unlock()
}

// BatchSubmitted counts one accepted batch and its point count.
func (m *Metrics) BatchSubmitted(points int) {
	m.mu.Lock()
	m.batchesSubmitted++
	m.batchPointsIn += uint64(points)
	m.mu.Unlock()
}

// BatchPointDone counts one settled batch point by disposition
// (cached, coalesced, duplicate, solved, reused, failed).
func (m *Metrics) BatchPointDone(disposition string) {
	m.mu.Lock()
	m.batchPoints[disposition]++
	m.mu.Unlock()
}

// BatchCompleted counts one batch reaching its terminal summary.
func (m *Metrics) BatchCompleted(BatchSummary) {
	m.mu.Lock()
	m.batchesCompleted++
	m.mu.Unlock()
}

// EventDelivered counts one batch event delivered to a consumer — an SSE
// frame written or a long-poll page entry returned. A resumed stream
// re-delivers, so this can exceed the sum of event-log lengths.
func (m *Metrics) EventDelivered() {
	m.mu.Lock()
	m.streamEvents++
	m.mu.Unlock()
}

// PortfolioWin counts one race won (first acceptable answer delivered)
// by the given engine, and records the time to that answer in the
// first-acceptable latency histogram.
func (m *Metrics) PortfolioWin(engine string, seconds float64) {
	m.mu.Lock()
	m.portfolioWins[engine]++
	for i, ub := range solveBuckets {
		if seconds <= ub {
			m.portfolioBucketN[i]++
		}
	}
	m.portfolioSum += seconds
	m.portfolioN++
	m.mu.Unlock()
}

// JobSubmitted counts one accepted submission of the given kind.
func (m *Metrics) JobSubmitted(kind string) {
	m.mu.Lock()
	m.submitted[kind]++
	m.mu.Unlock()
}

// JobRejected counts one admission-control rejection (full queue or
// draining server).
func (m *Metrics) JobRejected() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

// JobCoalesced counts one submission that attached to an identical
// in-flight job instead of enqueuing a duplicate.
func (m *Metrics) JobCoalesced() {
	m.mu.Lock()
	m.coalesced++
	m.mu.Unlock()
}

// JobCompleted counts one finished job by outcome and records its solve
// wall time in the latency histogram.
func (m *Metrics) JobCompleted(outcome string, seconds float64) {
	m.mu.Lock()
	m.completed[outcome]++
	for i, ub := range solveBuckets {
		if seconds <= ub {
			m.bucketN[i]++
		}
	}
	m.solveSum += seconds
	m.solveN++
	m.mu.Unlock()
}

// Gauges carries the point-in-time values the server samples when
// rendering /metrics.
type Gauges struct {
	Workers     int
	WorkersBusy int
	QueueDepth  int
	Draining    bool
	Ready       bool
	JobsTracked int
	// JournalEnabled, JournalCompactions, and JournalDegraded are
	// sampled from the attached journal (zero when journaling is off).
	JournalEnabled     bool
	JournalCompactions uint64
	JournalDegraded    bool
	// FaultCounts snapshots the injector's fired-fault counters by
	// point name (nil when injection is disabled).
	FaultCounts map[string]uint64
	// BatchesTracked and StreamsActive are the batch API gauges.
	BatchesTracked int
	StreamsActive  int
}

// cacheStat is one cache's identity and counters for rendering.
type cacheStat struct {
	name         string
	hits, misses uint64
	entries      int
}

// WritePrometheus renders the metrics in the Prometheus text exposition
// format (text/plain; version=0.0.4).
func (m *Metrics) WritePrometheus(w io.Writer, g Gauges, caches []cacheStat) {
	m.mu.Lock()
	defer m.mu.Unlock()

	writeMap := func(name, help, label string, vals map[string]uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, k, vals[k])
		}
	}
	writeMap("partitad_jobs_submitted_total", "Jobs accepted, by kind.", "kind", m.submitted)
	writeMap("partitad_jobs_completed_total", "Jobs finished, by outcome.", "outcome", m.completed)
	fmt.Fprintf(w, "# HELP partitad_jobs_rejected_total Submissions rejected by admission control.\n# TYPE partitad_jobs_rejected_total counter\npartitad_jobs_rejected_total %d\n", m.rejected)
	fmt.Fprintf(w, "# HELP partitad_solves_started_total Jobs that entered an actual solve (cache hits excluded).\n# TYPE partitad_solves_started_total counter\npartitad_solves_started_total %d\n", m.solvesStarted)
	fmt.Fprintf(w, "# HELP partitad_jobs_coalesced_total Submissions attached to an identical in-flight job.\n# TYPE partitad_jobs_coalesced_total counter\npartitad_jobs_coalesced_total %d\n", m.coalesced)

	fmt.Fprintf(w, "# HELP partitad_batches_submitted_total Batches accepted on /v1/batches.\n# TYPE partitad_batches_submitted_total counter\npartitad_batches_submitted_total %d\n", m.batchesSubmitted)
	fmt.Fprintf(w, "# HELP partitad_batches_completed_total Batches that reached their terminal summary.\n# TYPE partitad_batches_completed_total counter\npartitad_batches_completed_total %d\n", m.batchesCompleted)
	fmt.Fprintf(w, "# HELP partitad_batch_points_submitted_total Points carried by accepted batches.\n# TYPE partitad_batch_points_submitted_total counter\npartitad_batch_points_submitted_total %d\n", m.batchPointsIn)
	writeMap("partitad_batch_points_total", "Settled batch points, by disposition.", "disposition", m.batchPoints)
	fmt.Fprintf(w, "# HELP partitad_batch_events_delivered_total Batch events delivered to SSE and long-poll consumers (resumes re-deliver).\n# TYPE partitad_batch_events_delivered_total counter\npartitad_batch_events_delivered_total %d\n", m.streamEvents)
	fmt.Fprintf(w, "# HELP partitad_batches_tracked Batches retained for polling and streaming.\n# TYPE partitad_batches_tracked gauge\npartitad_batches_tracked %d\n", g.BatchesTracked)
	fmt.Fprintf(w, "# HELP partitad_batch_streams_active Live SSE event streams.\n# TYPE partitad_batch_streams_active gauge\npartitad_batch_streams_active %d\n", g.StreamsActive)

	fmt.Fprintf(w, "# HELP partitad_cache_hits_total Cache hits, by cache.\n# TYPE partitad_cache_hits_total counter\n")
	for _, c := range caches {
		fmt.Fprintf(w, "partitad_cache_hits_total{cache=%q} %d\n", c.name, c.hits)
	}
	fmt.Fprintf(w, "# HELP partitad_cache_misses_total Cache misses, by cache.\n# TYPE partitad_cache_misses_total counter\n")
	for _, c := range caches {
		fmt.Fprintf(w, "partitad_cache_misses_total{cache=%q} %d\n", c.name, c.misses)
	}
	fmt.Fprintf(w, "# HELP partitad_cache_entries Live cache entries, by cache.\n# TYPE partitad_cache_entries gauge\n")
	for _, c := range caches {
		fmt.Fprintf(w, "partitad_cache_entries{cache=%q} %d\n", c.name, c.entries)
	}

	fmt.Fprintf(w, "# HELP partitad_workers Configured worker count.\n# TYPE partitad_workers gauge\npartitad_workers %d\n", g.Workers)
	fmt.Fprintf(w, "# HELP partitad_workers_busy Workers currently running a job.\n# TYPE partitad_workers_busy gauge\npartitad_workers_busy %d\n", g.WorkersBusy)
	fmt.Fprintf(w, "# HELP partitad_queue_depth Jobs waiting in the admission queue.\n# TYPE partitad_queue_depth gauge\npartitad_queue_depth %d\n", g.QueueDepth)
	fmt.Fprintf(w, "# HELP partitad_jobs_tracked Jobs retained for polling.\n# TYPE partitad_jobs_tracked gauge\npartitad_jobs_tracked %d\n", g.JobsTracked)
	draining := 0
	if g.Draining {
		draining = 1
	}
	fmt.Fprintf(w, "# HELP partitad_draining Whether the server is draining for shutdown.\n# TYPE partitad_draining gauge\npartitad_draining %d\n", draining)

	writeMap("partitad_portfolio_wins_total", "Portfolio races won (first acceptable answer), by engine.", "engine", m.portfolioWins)
	fmt.Fprintf(w, "# HELP partitad_portfolio_first_acceptable_seconds Time from portfolio race start to the first acceptable answer.\n# TYPE partitad_portfolio_first_acceptable_seconds histogram\n")
	for i, ub := range solveBuckets {
		fmt.Fprintf(w, "partitad_portfolio_first_acceptable_seconds_bucket{le=%q} %d\n", fmt.Sprintf("%g", ub), m.portfolioBucketN[i])
	}
	fmt.Fprintf(w, "partitad_portfolio_first_acceptable_seconds_bucket{le=\"+Inf\"} %d\n", m.portfolioN)
	fmt.Fprintf(w, "partitad_portfolio_first_acceptable_seconds_sum %g\n", m.portfolioSum)
	fmt.Fprintf(w, "partitad_portfolio_first_acceptable_seconds_count %d\n", m.portfolioN)

	fmt.Fprintf(w, "# HELP partitad_solve_seconds Job solve wall time.\n# TYPE partitad_solve_seconds histogram\n")
	for i, ub := range solveBuckets {
		fmt.Fprintf(w, "partitad_solve_seconds_bucket{le=%q} %d\n", fmt.Sprintf("%g", ub), m.bucketN[i])
	}
	fmt.Fprintf(w, "partitad_solve_seconds_bucket{le=\"+Inf\"} %d\n", m.solveN)
	fmt.Fprintf(w, "partitad_solve_seconds_sum %g\n", m.solveSum)
	fmt.Fprintf(w, "partitad_solve_seconds_count %d\n", m.solveN)

	ready := 0
	if g.Ready {
		ready = 1
	}
	fmt.Fprintf(w, "# HELP partitad_ready Whether the server is ready for traffic (journal replayed, not draining).\n# TYPE partitad_ready gauge\npartitad_ready %d\n", ready)
	fmt.Fprintf(w, "# HELP partitad_panics_recovered_total Worker panics contained by the pool.\n# TYPE partitad_panics_recovered_total counter\npartitad_panics_recovered_total %d\n", m.panics)

	jenabled := 0
	if g.JournalEnabled {
		jenabled = 1
	}
	fmt.Fprintf(w, "# HELP partitad_journal_enabled Whether a write-ahead journal is attached.\n# TYPE partitad_journal_enabled gauge\npartitad_journal_enabled %d\n", jenabled)
	jdegraded := 0
	if g.JournalDegraded {
		jdegraded = 1
	}
	fmt.Fprintf(w, "# HELP partitad_journal_degraded Whether journal appends are suspended after an unrepairable failure.\n# TYPE partitad_journal_degraded gauge\npartitad_journal_degraded %d\n", jdegraded)
	fmt.Fprintf(w, "# HELP partitad_journal_errors_total Journal appends or compactions that failed (durability degraded).\n# TYPE partitad_journal_errors_total counter\npartitad_journal_errors_total %d\n", m.journalErrors)
	fmt.Fprintf(w, "# HELP partitad_journal_compactions_total Journal compactions completed.\n# TYPE partitad_journal_compactions_total counter\npartitad_journal_compactions_total %d\n", g.JournalCompactions)
	fmt.Fprintf(w, "# HELP partitad_journal_replay_seconds Wall time of the startup journal replay.\n# TYPE partitad_journal_replay_seconds gauge\npartitad_journal_replay_seconds %g\n", m.replay.ReplayDuration.Seconds())
	fmt.Fprintf(w, "# HELP partitad_journal_records_replayed Records decoded during the startup replay.\n# TYPE partitad_journal_records_replayed gauge\npartitad_journal_records_replayed %d\n", m.replay.RecordsReplayed)
	fmt.Fprintf(w, "# HELP partitad_journal_jobs_restored Finished jobs restored from the journal at startup.\n# TYPE partitad_journal_jobs_restored gauge\npartitad_journal_jobs_restored %d\n", m.replay.JobsRestored)
	fmt.Fprintf(w, "# HELP partitad_journal_jobs_requeued Unfinished jobs re-enqueued from the journal at startup.\n# TYPE partitad_journal_jobs_requeued gauge\npartitad_journal_jobs_requeued %d\n", m.replay.JobsRequeued)

	fmt.Fprintf(w, "# HELP partitad_journal_fsync_seconds Journal fsync latency.\n# TYPE partitad_journal_fsync_seconds histogram\n")
	for i, ub := range fsyncBuckets {
		fmt.Fprintf(w, "partitad_journal_fsync_seconds_bucket{le=%q} %d\n", fmt.Sprintf("%g", ub), m.fsyncBucketN[i])
	}
	fmt.Fprintf(w, "partitad_journal_fsync_seconds_bucket{le=\"+Inf\"} %d\n", m.fsyncN)
	fmt.Fprintf(w, "partitad_journal_fsync_seconds_sum %g\n", m.fsyncSum)
	fmt.Fprintf(w, "partitad_journal_fsync_seconds_count %d\n", m.fsyncN)

	writeMap("partitad_faults_injected_total", "Faults fired by the injector, by point.", "point", g.FaultCounts)
}
