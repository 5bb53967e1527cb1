// Command bench is partita's benchmark. One invocation runs one
// workload for a fixed window in its own process, checks every answer
// against an oracle that shares no code with the selector or the ILP
// solver, and prints the metrics BENCHMARK.json names as the last line
// of standard output:
//
//	bash bench/run.sh --workload tables --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics; with
// --trace 1 the run also records one span per call the harness makes
// into a layer, writes the spans to --spans, and prints the per-layer
// metrics instead. README.md in this directory has the glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// refsPath is where -regen writes the reference answers, from the
// repository root.
const refsPath = "bench/testdata/refs.json"

// config is one invocation's settings.
type config struct {
	seed   int64
	window time.Duration
	trace  bool
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(config) (*result, error){
	"tables":  runTables,
	"scaled":  runScaled,
	"explore": runExplore,
	"service": runService,
}

func main() {
	name := flag.String("workload", "", "workload to run: tables, scaled, explore, or service")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 25, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	spans := flag.String("spans", ".bench_build/spans.json", "file a traced run writes its spans to")
	regen := flag.Bool("regen", false, "recompute "+refsPath+" with serial solves")
	flag.Parse()

	if *regen {
		if err := regenRefs(refsPath); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: need --workload tables|scaled|explore|service, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	cfg := config{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	res.metrics["peak_rss_mb"] = peakRSSMB()
	if cfg.trace {
		if err := res.tr.write(*spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		res.tr.summarize(os.Stderr)
		res.tr.layerMetrics(res.metrics)
	}
	decls := sp.EndToEnd
	if cfg.trace {
		decls = sp.PerLayer
	}
	line, err := json.Marshal(res.report(decls))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
