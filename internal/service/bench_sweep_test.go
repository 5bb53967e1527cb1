package service

// The sweep benchmark harness quantifies the shared-analysis lazy
// pipeline (analyze once, select many) against independent per-point
// solves, at two levels:
//
//   - Library: a 64-point sweep over the GSM and JPEG encoders through
//     Design.NewSweepPipeline versus 64 independent Design.SelectCtx
//     calls on the same analyzed design.
//   - Service: a 64-point GSM sweep submitted as one POST /v1/batches
//     versus 64 independent job submissions over HTTP, plus the
//     cache-warm batch resubmit (which must start zero new solves —
//     partitad_solves_started_total stays flat).
//
// Results land in BENCH_sweep.json at the repo root (override with
// BENCH_SWEEP_OUT):
//
//	go test -run NoTests -bench BenchmarkSweep -benchtime 1x ./internal/service
//
// Each run merges into the existing file, one entry per benchmark.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"partita"
	"partita/internal/apps"
)

// sweepBenchEntry is one benchmark's row in BENCH_sweep.json.
type sweepBenchEntry struct {
	Points      int     `json:"points"`
	PerPointSec float64 `json:"perPointSec"`
	PipelineSec float64 `json:"pipelineSec"`
	// Speedup is per-point wall clock over pipeline wall clock.
	Speedup float64 `json:"speedup"`
	// Pipeline dispositions (library-level entries).
	Solved      int `json:"solved,omitempty"`
	Reused      int `json:"reused,omitempty"`
	GreedySeeds int `json:"greedySeeds,omitempty"`
	// Batch dispositions (service-level entries).
	BatchSolved   int  `json:"batchSolved,omitempty"`
	BatchReused   int  `json:"batchReused,omitempty"`
	ResubmitZero  bool `json:"resubmitZeroSolves,omitempty"`
	ResubmitCache int  `json:"resubmitCached,omitempty"`
}

// sweepBenchOutPath locates BENCH_sweep.json: $BENCH_SWEEP_OUT if set,
// else next to go.mod.
func sweepBenchOutPath() (string, error) {
	if p := os.Getenv("BENCH_SWEEP_OUT"); p != "" {
		return p, nil
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return filepath.Join(dir, "BENCH_sweep.json"), nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

func recordSweepBench(b *testing.B, name string, e sweepBenchEntry) {
	benchOut.mu.Lock()
	defer benchOut.mu.Unlock()
	path, err := sweepBenchOutPath()
	if err != nil {
		b.Logf("bench output skipped: %v", err)
		return
	}
	doc := map[string]sweepBenchEntry{}
	if raw, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(raw, &doc)
	}
	doc[name] = e
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// sweepGains is the benchmark's 64-point grid: evenly spaced across the
// design's reachable range, the same spacing SweepPoints uses.
func sweepGains(maxGain int64, points int) []int64 {
	gains := make([]int64, points)
	for i := 1; i <= points; i++ {
		gains[i-1] = maxGain * int64(i) / int64(points)
	}
	return gains
}

// benchSweepShared runs the library-level comparison on one workload.
func benchSweepShared(b *testing.B, name string, load func() (apps.Workload, error)) {
	w, err := load()
	if err != nil {
		b.Fatal(err)
	}
	design, err := partita.Analyze(w.Source, w.Root, w.Catalog, partita.Options{DataCount: w.DataCount})
	if err != nil {
		b.Fatal(err)
	}
	const points = 64
	gains := sweepGains(design.MaxReachableGain(), points)

	var entry sweepBenchEntry
	entry.Points = points
	for i := 0; i < b.N; i++ {
		// Independent per-point solves: the pre-pipeline sweep shape —
		// same analyzed design, but no plateau reuse, no infeasibility
		// propagation, no warm starts.
		t0 := time.Now()
		for _, rg := range gains {
			if _, err := design.SelectCtx(b.Context(), rg, partita.Budget{}); err != nil {
				b.Fatal(err)
			}
		}
		perPoint := time.Since(t0)

		t0 = time.Now()
		pl := design.NewSweepPipeline(gains, partita.Budget{}, nil)
		for {
			_, ok, err := pl.Next(b.Context())
			if !ok {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		pipeline := time.Since(t0)

		st := pl.Stats()
		entry.PerPointSec = perPoint.Seconds()
		entry.PipelineSec = pipeline.Seconds()
		entry.Speedup = perPoint.Seconds() / pipeline.Seconds()
		entry.Solved, entry.Reused, entry.GreedySeeds = st.Solved, st.Reused, st.GreedySeeds
	}
	b.ReportMetric(entry.Speedup, "speedup_x")
	b.ReportMetric(entry.PipelineSec, "pipeline_sec")
	recordSweepBench(b, name, entry)
}

func BenchmarkSweepSharedAnalysisGSM(b *testing.B) {
	benchSweepShared(b, "pipeline_vs_perpoint_gsm", apps.GSMEncoderWorkload)
}

func BenchmarkSweepSharedAnalysisJPEG(b *testing.B) {
	benchSweepShared(b, "pipeline_vs_perpoint_jpeg", apps.JPEGEncoderWorkload)
}

var solvesStartedRe = regexp.MustCompile(`(?m)^partitad_solves_started_total (\d+)$`)

// scrapeSolvesStarted reads partitad_solves_started_total off /metrics.
func scrapeSolvesStarted(b *testing.B, base string) int {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		b.Fatal(err)
	}
	m := solvesStartedRe.FindSubmatch(raw)
	if m == nil {
		b.Fatalf("partitad_solves_started_total missing from /metrics:\n%s", raw)
	}
	n, err := strconv.Atoi(string(m[1]))
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// BenchmarkSweepBatchAPIGSM is the end-to-end acceptance benchmark: a
// 64-point GSM sweep through POST /v1/batches must beat 64 independent
// HTTP submits by >= 1.5x wall clock, and resubmitting the identical
// batch against the warm cache must start zero new solves.
func BenchmarkSweepBatchAPIGSM(b *testing.B) {
	const points = 64
	newDaemon := func() (*Server, *httptest.Server) {
		s := New(Config{Workers: 0, QueueDepth: 1024, MaxJobs: 1 << 20, ResultCacheSize: 1024})
		s.Start()
		return s, httptest.NewServer(s.Handler())
	}
	submitJSON := func(ts *httptest.Server, path string, body any) []byte {
		raw, err := json.Marshal(body)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if resp.StatusCode >= 300 {
			b.Fatalf("POST %s: %d %s", path, resp.StatusCode, out)
		}
		return out
	}

	var entry sweepBenchEntry
	entry.Points = points
	for i := 0; i < b.N; i++ {
		// Baseline: 64 independent submits, each waited to completion —
		// what a batch-less client does today.
		s1, ts1 := newDaemon()
		first, err := s1.Submit(JobSpec{Kind: KindAnalyze, Workload: "gsm"})
		if err != nil {
			b.Fatal(err)
		}
		waitDone(b, first)
		gains := sweepGains(first.Result().Analyze.MaxReachableGain, points)

		t0 := time.Now()
		for _, rg := range gains {
			var v JobView
			if err := json.Unmarshal(submitJSON(ts1, "/v1/jobs", JobSpec{
				Kind: KindSelect, Workload: "gsm", RequiredGain: rg,
			}), &v); err != nil {
				b.Fatal(err)
			}
			job, ok := s1.Job(v.ID)
			if !ok {
				b.Fatalf("job %s not tracked", v.ID)
			}
			waitDone(b, job)
		}
		perPoint := time.Since(t0)
		ts1.Close()
		shutdownNow(b, s1)

		// One batch over a fresh daemon: same points, same HTTP surface.
		s2, ts2 := newDaemon()
		warm, err := s2.Submit(JobSpec{Kind: KindAnalyze, Workload: "gsm"})
		if err != nil {
			b.Fatal(err)
		}
		waitDone(b, warm)

		spec := BatchSpec{Defaults: JobSpec{Workload: "gsm"}}
		for _, rg := range gains {
			spec.Points = append(spec.Points, BatchPoint{RequiredGain: rg})
		}
		t0 = time.Now()
		var bv BatchView
		if err := json.Unmarshal(submitJSON(ts2, "/v1/batches", spec), &bv); err != nil {
			b.Fatal(err)
		}
		batch, ok := s2.Batch(bv.ID)
		if !ok {
			b.Fatalf("batch %s not tracked", bv.ID)
		}
		waitBatch(b, batch)
		pipeline := time.Since(t0)

		done := batch.View(false)
		if done.Summary == nil || done.Summary.Failed > 0 {
			b.Fatalf("batch summary: %+v", done.Summary)
		}
		entry.BatchSolved = done.Summary.Solved
		entry.BatchReused = done.Summary.Reused

		// Cache-warm resubmit: identical batch, zero new solves.
		before := scrapeSolvesStarted(b, ts2.URL)
		var rv BatchView
		if err := json.Unmarshal(submitJSON(ts2, "/v1/batches", spec), &rv); err != nil {
			b.Fatal(err)
		}
		rb, ok := s2.Batch(rv.ID)
		if !ok {
			b.Fatalf("resubmitted batch %s not tracked", rv.ID)
		}
		waitBatch(b, rb)
		after := scrapeSolvesStarted(b, ts2.URL)
		rdone := rb.View(false)
		entry.ResubmitZero = after == before
		entry.ResubmitCache = rdone.Summary.Cached
		if after != before {
			b.Fatalf("cache-warm resubmit started %d new solves", after-before)
		}
		ts2.Close()
		shutdownNow(b, s2)

		entry.PerPointSec = perPoint.Seconds()
		entry.PipelineSec = pipeline.Seconds()
		entry.Speedup = perPoint.Seconds() / pipeline.Seconds()
	}
	b.ReportMetric(entry.Speedup, "speedup_x")
	b.ReportMetric(entry.PipelineSec, "batch_sec")
	if entry.Speedup < 1.5 {
		b.Fatalf("batch API speedup %.2fx, want >= 1.5x (per-point %.2fs, batch %.2fs)",
			entry.Speedup, entry.PerPointSec, entry.PipelineSec)
	}
	recordSweepBench(b, "batch_api_vs_submits_gsm", entry)
}
