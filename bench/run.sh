#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root with the benchmark's flags, e.g.
#
#   bash bench/run.sh --workload tables --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory, and the Go toolchain is kept offline.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$out/partita-bench" .)
exec "$out/partita-bench" "$@"
