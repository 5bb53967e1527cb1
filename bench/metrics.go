package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// decl is one metric the benchmark prints, as BENCHMARK.json lists it.
type decl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the benchmark reads: the metrics an
// untraced run prints (end_to_end) and those a traced run prints
// (per_layer), on every workload. A layer a workload does not exercise
// reads 0.
type spec struct {
	EndToEnd []decl `json:"end_to_end"`
	PerLayer []decl `json:"per_layer"`
}

func loadSpec(path string) (spec, error) {
	var sp spec
	raw, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// result is one run's outcome: operation counts, every metric the
// workload measured, and the spans of a traced run.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	tr                *tracer
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

// fail records one failed operation and says why on standard error.
func (r *result) fail(what string, err error) {
	r.failed++
	if r.failed <= 20 {
		fmt.Fprintf(os.Stderr, "bench: FAILED %s: %v\n", what, err)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report selects the metrics decls names.
func (r *result) report(decls []decl) report {
	out := report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range decls {
		out.Metrics[d.Name] = metricValue{Value: r.metrics[d.Name], Unit: d.Unit}
	}
	return out
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the q-quantile of xs by linear interpolation (0 when
// empty). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of xs (0 when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logs := 0.0
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

// tailQ is the highest of the usual percentiles (p50, p75, p90, p95,
// p99, p99.9) with at least ten of n samples beyond it.
func tailQ(n int) float64 {
	q := 500
	for _, p := range []int{750, 900, 950, 990, 999} {
		if n*(1000-p) >= 10*1000 {
			q = p
		}
	}
	return float64(q) / 1000
}

// tail is xs at tailQ.
func tail(xs []float64) float64 { return quantile(xs, tailQ(len(xs))) }

// peakRSSMB is the process's peak resident set (VmHWM) in megabytes.
func peakRSSMB() float64 { return statusMB("VmHWM:") }

// statusMB reads a memory field of /proc/self/status in megabytes,
// falling back to the Go runtime's view where /proc is unavailable.
func statusMB(field string) float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
