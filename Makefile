# Convenience targets around the go toolchain; everything here is plain
# `go test` underneath.

.PHONY: build test race bench profile-ilp bench-portfolio bench-service bench-sweep integration chaos chaos-cluster

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# Paper-reproduction experiments as benchmarks (tables, figures,
# ablations).
bench:
	go test -bench . -benchmem .

# Profile a solver-heavy run: the bundled GSM demo swept 10..90% of
# reachable gain (rg=0). Writes profile_ilp_cpu.pprof and
# profile_ilp_mem.pprof at the repo root (override with PROFILE_DIR);
# inspect with `go tool pprof profile_ilp_cpu.pprof`.
PROFILE_DIR ?= .
profile-ilp:
	go build -o $(PROFILE_DIR)/partita-profile ./cmd/partita
	$(PROFILE_DIR)/partita-profile \
		-cpuprofile $(PROFILE_DIR)/profile_ilp_cpu.pprof \
		-memprofile $(PROFILE_DIR)/profile_ilp_mem.pprof > /dev/null
	rm -f $(PROFILE_DIR)/partita-profile
	@echo "wrote $(PROFILE_DIR)/profile_ilp_cpu.pprof and $(PROFILE_DIR)/profile_ilp_mem.pprof"

# Racing-portfolio benchmarks: time-to-first-acceptable at a 5% gap
# versus a cold exact solve on the GSM/JPEG models, per-engine win
# counts, and the warm-vs-cold speedup of an incremental Reselect after
# a single-field edit. Every iteration cross-checks the gap-0 settled
# answer byte-for-byte against the exact solver, so the speedups carry
# zero correctness drift. Writes BENCH_portfolio.json at the repo root
# (override with BENCH_PORTFOLIO_OUT). Override the iteration count with
# BENCHTIME (e.g. `make bench-portfolio BENCHTIME=1x` as a smoke test).
BENCHTIME ?= 20x
bench-portfolio:
	go test -run NoTests -bench BenchmarkPortfolio -benchtime $(BENCHTIME) .

# Service-level benchmarks: job throughput, p50/p99 solve latency, and
# cache-hit speedup over the GSM/JPEG workloads. Writes
# BENCH_service.json at the repo root (override with BENCH_SERVICE_OUT).
bench-service:
	go test -run NoTests -bench BenchmarkService -benchtime 20x ./internal/service

# Shared-analysis sweep benchmarks: the lazy pipeline (analyze once,
# select many — plateau reuse, infeasibility propagation, greedy warm
# starts) versus independent per-point solves on the GSM/JPEG encoders,
# plus the end-to-end 64-point GSM sweep through POST /v1/batches
# versus 64 independent HTTP submits (asserts >= 1.5x and a zero-solve
# cache-warm resubmit). Writes BENCH_sweep.json at the repo root
# (override with BENCH_SWEEP_OUT).
bench-sweep:
	go test -run NoTests -bench BenchmarkSweep -benchtime 1x ./internal/service

# End-to-end partitad test: builds the daemon, starts it on an
# ephemeral port, and round-trips a GSM job over HTTP.
integration:
	PARTITAD_INTEGRATION=1 go test -run TestPartitadIntegration -v ./internal/service

# Kill-and-restart chaos test: SIGKILLs a journaled daemon mid-sweep
# and asserts the restart loses no accepted job and regresses no
# journaled incumbent. A 24-point GSM sweep batch killed partly done
# must finish with no failed point, and its identical resubmit must be
# answered from the cache without a solve. PARTITAD_CHAOS_SEED varies
# the fault seed.
chaos:
	PARTITAD_CHAOS=1 go test -race -run TestKillRestartChaos -v ./client

# Node-kill cluster chaos test: boots a 3-node partitad ring, SIGKILLs
# the node owning the largest job share mid-sweep, and asserts zero
# accepted jobs lost, every job terminal via failover to the ring
# successor, and a result cached on one node served from another
# without re-solving (checked via per-node solve counters).
# PARTITAD_CHAOS_SEED varies the fault seed; PARTITAD_CHAOS_DIR pins
# journals and per-node logs for artifact upload.
chaos-cluster:
	PARTITAD_CLUSTER_CHAOS=1 go test -race -run TestClusterKillChaos -v -timeout 10m ./client
