// Command partitad serves ASIP synthesis over HTTP/JSON: clients
// submit analyze, select, and sweep jobs, poll their anytime progress
// (incumbent, bound, gap), and read the results. Identical jobs are
// answered from a content-addressed cache; /metrics exposes queue,
// worker, cache, journal, and solve-latency counters in Prometheus
// text format.
//
// Usage:
//
//	partitad [-addr :8080] [-workers N] [-queue 64]
//	         [-design-cache 32] [-result-cache 256]
//	         [-default-timeout 0] [-max-timeout 2m]
//	         [-max-jobs 1024] [-grace 30s]
//	         [-portfolio-gap 0.05]
//	         [-max-batch-points 4096] [-max-batch-bytes 33554432]
//	         [-max-batches 128]
//	         [-journal path] [-journal-sync always|never]
//	         [-peers urls -self url] [-probe-interval 2s]
//	         [-probe-timeout 1s] [-peer-fail-after 3]
//	         [-peer-pass-after 2] [-forward-timeout 10s]
//	         [-peek-timeout 300ms]
//	         [-faults spec]
//
// Each job's solve runs on one worker of the pool, so -workers is the
// daemon's only concurrency knob. A job's "parallelism" field is
// accepted for compatibility and ignored (see docs/SERVICE.md).
//
// Select jobs with "mode": "portfolio" race the capacity-bound
// witness, the re-priced previous answer on edits, the greedy
// baseline and the exact branch and bound, in that order on the job's
// worker; the result carries per-engine attribution (winner,
// first-acceptable gap and latency, exact confirmation). POST
// /v1/jobs/{id}/edits derives a new portfolio job from a finished
// select job by applying interactive edits (IP areas, IMP gains,
// required gains); the parent's cached selection, re-priced under the
// edits, races as the seed engine's candidate. -portfolio-gap sets the
// default acceptability threshold. See docs/SERVICE.md ("Interactive
// edits").
//
// With -journal, the daemon is crash-safe: every accepted job is
// recorded in an append-only, checksummed, fsync'd log before the 202
// response, running solves checkpoint their incumbents, and a restart
// replays the log — finished jobs come back with their results,
// unfinished jobs are re-enqueued, and the log is compacted. See
// docs/SERVICE.md ("Durability & recovery").
//
// With -peers (a comma-separated list of every node's base URL,
// including this one, named again by -self), the daemon joins a static
// partitad cluster: job keys are consistent-hashed onto the peer list,
// submissions landing on a non-owner are forwarded, peers are health-
// probed and a dead owner's key range fails over to its ring successor,
// and a result cached on any node is served to the whole ring before
// anyone re-solves. See docs/SERVICE.md ("Clustering").
//
// POST /v1/batches submits many sweep points as one batch: every point
// is content-addressed like a single select job, answered from the
// result cache or coalesced onto identical in-flight work where
// possible, and the remainder is grouped by program and driven through
// a shared-analysis sweep pipeline (analyze once, select many — with
// plateau reuse and infeasibility propagation).
// Results stream incrementally over GET /v1/batches/{id}/events as
// Server-Sent Events — per-point incumbent progress, point
// completions, and a terminal batch summary, resumable by
// Last-Event-ID — with a JSON long-poll fallback (?after=N&wait=10s)
// for clients that cannot hold a streaming connection. -max-batch-points,
// -max-batch-bytes (413 when exceeded), and -max-batches bound the
// surface. A clustered node runs its batches locally too; per-point
// results reach the other nodes through the cross-node result cache.
// See docs/SERVICE.md ("Batch sweeps & streaming").
//
// -faults (or the PARTITAD_FAULTS environment variable) enables the
// deterministic fault-injection layer for chaos testing, e.g.
// "seed=42,worker.panic=0.05,journal.write=0.1". Never set it in
// production.
//
// On SIGINT/SIGTERM the daemon drains: readiness goes 503, idle
// long-pollers are released, new submissions are rejected, in-flight
// solves see an expired deadline and return their best incumbents,
// then the process exits. -grace bounds the drain.
//
// Endpoints:
//
//	POST /v1/jobs               submit a job (service.JobSpec JSON)
//	GET  /v1/jobs               list tracked jobs (cluster-wide when clustered)
//	GET  /v1/jobs/{id}          poll one job (?wait=10s long-polls)
//	POST /v1/jobs/{id}/edits    derive a portfolio re-solve from a finished select job
//	POST /v1/batches            submit a batch of sweep points (service.BatchSpec JSON)
//	GET  /v1/batches            list tracked batches
//	GET  /v1/batches/{id}       one batch snapshot with per-point rows (?points=0 omits)
//	GET  /v1/batches/{id}/events  stream batch events (SSE; JSON long-poll via ?after=N&wait=10s)
//	GET  /metrics               Prometheus text metrics
//	GET  /healthz               liveness (200 while the process serves)
//	GET  /readyz                readiness (503 + JSON reason during replay/drain)
//	GET  /v1/cluster/ring       this node's view of peer health (cluster mode)
//	GET  /v1/cluster/owner/{k}  routing decision for one job key (cluster mode)
//	GET  /v1/cluster/cache/{k}  peer result-cache peek (cluster mode)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"partita/internal/cluster"
	"partita/internal/faults"
	"partita/internal/journal"
	"partita/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
	workers := flag.Int("workers", 0, "solver pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth (0 = default 64)")
	designCache := flag.Int("design-cache", 0, "analyzed-design LRU entries (0 = default 32)")
	resultCache := flag.Int("result-cache", 0, "finished-result LRU entries (0 = default 256)")
	defaultTimeout := flag.Duration("default-timeout", 0, "deadline for jobs that set none (0 = inherit -max-timeout)")
	maxTimeout := flag.Duration("max-timeout", 0, "hard cap on any job deadline (0 = default 2m)")
	maxJobs := flag.Int("max-jobs", 0, "jobs retained for polling (0 = default 1024)")
	portfolioGap := flag.Float64("portfolio-gap", 0, "default acceptability gap of portfolio-mode jobs that set none (0 = default 0.05)")
	grace := flag.Duration("grace", 30*time.Second, "shutdown drain budget")
	maxBatchPoints := flag.Int("max-batch-points", 0, "points accepted in one batch (0 = default 4096)")
	maxBatchBytes := flag.Int64("max-batch-bytes", 0, "batch request body cap in bytes (0 = default 32 MiB)")
	maxBatches := flag.Int("max-batches", 0, "batches retained for polling/streaming (0 = default 128)")
	journalPath := flag.String("journal", "", "write-ahead journal path (empty = no crash safety)")
	journalSync := flag.String("journal-sync", "always", "journal fsync policy: always or never")
	peers := flag.String("peers", "", "comma-separated peer base URLs including this node (enables cluster mode)")
	self := flag.String("self", "", "this node's base URL as peers reach it (required with -peers)")
	probeInterval := flag.Duration("probe-interval", 0, "peer health probe interval (0 = default 2s)")
	probeTimeout := flag.Duration("probe-timeout", 0, "peer health probe timeout (0 = default 1s)")
	peerFailAfter := flag.Int("peer-fail-after", 0, "consecutive failures before a peer is marked dead (0 = default 3)")
	peerPassAfter := flag.Int("peer-pass-after", 0, "consecutive probe successes before a dead peer rejoins (0 = default 2)")
	forwardTimeout := flag.Duration("forward-timeout", 0, "timeout of one forwarded submit (0 = default 10s)")
	peekTimeout := flag.Duration("peek-timeout", 0, "budget for peeking peer result caches before solving (0 = default 300ms)")
	faultSpec := flag.String("faults", "", "fault-injection spec (default: $"+faults.EnvVar+"; chaos testing only)")
	flag.Parse()

	syncPolicy, err := journal.ParseSyncPolicy(*journalSync)
	if err != nil {
		log.Fatalf("partitad: %v", err)
	}
	inj, err := faults.FromFlagOrEnv(*faultSpec)
	if err != nil {
		log.Fatalf("partitad: %v", err)
	}
	if inj.Enabled() {
		log.Printf("partitad: FAULT INJECTION ACTIVE (%s) — points: %v", inj.Spec(), inj.Points())
	}

	// The cluster node is built before the service core: the core's
	// config carries the node's hooks, and the node gets the built core
	// via Attach. Routing stays out of the execution layer.
	var node *cluster.Node
	if *peers != "" {
		if *self == "" {
			log.Fatalf("partitad: -peers requires -self (this node's base URL as peers reach it)")
		}
		node, err = cluster.New(cluster.Config{
			Self:  *self,
			Peers: strings.Split(*peers, ","),
			Probe: cluster.ProbeConfig{
				Interval:  *probeInterval,
				Timeout:   *probeTimeout,
				FailAfter: *peerFailAfter,
				PassAfter: *peerPassAfter,
			},
			ForwardTimeout: *forwardTimeout,
			PeekTimeout:    *peekTimeout,
			Faults:         inj,
			Logf:           log.Printf,
		})
		if err != nil {
			log.Fatalf("partitad: %v", err)
		}
	}

	cfg := service.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		DesignCacheSize: *designCache,
		ResultCacheSize: *resultCache,
		DefaultTimeout:  *defaultTimeout,
		MaxTimeout:      *maxTimeout,
		MaxJobs:         *maxJobs,
		PortfolioGap:    *portfolioGap,
		MaxBatchPoints:  *maxBatchPoints,
		MaxBatchBytes:   *maxBatchBytes,
		MaxBatches:      *maxBatches,
		JournalPath:     *journalPath,
		JournalSync:     syncPolicy,
		Faults:          inj,
	}
	if node != nil {
		cfg.NodeName = node.NodeName()
		cfg.RemoteLookup = node.RemoteLookup
		cfg.OwnerOf = node.OwnerOf
	}
	srv, err := service.Open(cfg)
	if err != nil {
		log.Fatalf("partitad: %v", err)
	}
	if rec := srv.Recovery(); rec.Enabled {
		log.Printf("partitad: journal replayed in %s: %d records, %d jobs restored, %d requeued (truncated %d bytes, corrupt=%v)",
			rec.ReplayDuration.Round(time.Millisecond), rec.RecordsReplayed,
			rec.JobsRestored, rec.JobsRequeued, rec.TruncatedBytes, rec.Corrupt)
	}
	srv.Start()

	handler := srv.Handler()
	if node != nil {
		node.Attach(srv)
		node.Start()
		handler = node.Handler()
		log.Printf("partitad: cluster mode: node %s, %d peers", node.NodeName(), len(strings.Split(*peers, ","))-1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("partitad: %v", err)
	}
	httpSrv := &http.Server{Handler: handler}

	// The resolved address line is part of the contract: integration
	// harnesses start the daemon on :0 and parse the port from here.
	fmt.Printf("partitad listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("partitad: %v, draining (budget %s)", sig, *grace)
	case err := <-errc:
		log.Fatalf("partitad: serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	// Drain order matters: announce ring departure first (readiness flips
	// to "leaving-ring" so peers and balancers steer away), flip draining
	// so idle long-pollers wake and disconnect, then stop accepting
	// connections, then wait for the solver pool — otherwise an idle
	// poller would pin the HTTP shutdown for the full grace budget even
	// with an empty queue.
	if node != nil {
		node.Leave()
	}
	srv.BeginDrain()
	// Keep the listener open briefly after readiness flips so balancers
	// polling /readyz observe the 503 ("leaving-ring"/"draining") instead
	// of an instant connection-refused.
	if notice := 500 * time.Millisecond; *grace > 2*notice {
		time.Sleep(notice)
	} else if *grace > 0 {
		time.Sleep(*grace / 4)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("partitad: http shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("partitad: drain incomplete: %v", err)
		if node != nil {
			node.Stop()
		}
		_ = srv.CloseJournal()
		os.Exit(1)
	}
	if node != nil {
		node.Stop()
	}
	if err := srv.CloseJournal(); err != nil {
		log.Printf("partitad: journal close: %v", err)
	}
	log.Println("partitad: drained, exiting")
}
