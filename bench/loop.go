package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"
)

// order visits n instances pass after pass, each pass a fresh seeded
// permutation, so every run sees the same instances in its own order.
type order struct {
	rng   *rand.Rand
	n     int
	perms [][]int
}

func newOrder(seed int64, n int) *order { return &order{rng: rand.New(rand.NewSource(seed)), n: n} }

// at is the instance request i visits.
func (o *order) at(i int) int {
	for len(o.perms) <= i/o.n {
		o.perms = append(o.perms, o.rng.Perm(o.n))
	}
	return o.perms[i/o.n][i%o.n]
}

// request performs one request on instance inst, tracing into tr when
// it is non-nil, and returns its latency — the time spent in calls into
// the program, the oracle excluded — or why it failed. rec is false
// during the warm-up.
type request func(inst int, tr *tracer, rec bool) (time.Duration, error)

// loopStats are the timed samples of one closed loop's window.
type loopStats struct {
	reqs     []sample  // untraced requests
	traced   []float64 // traced requests' latencies (ms)
	setups   []sample
	requests int
	elapsed  time.Duration
	probe    *probe
}

// closedLoop is one client that sends a request only after the previous
// one completed. It warms up for warm, then visits the n instances pass
// after pass in seeded order until the window closes, probing the host
// between requests and running setup setupRuns times spread over the
// window. Latencies count whole passes only, so every run
// summarizes the same multiset of instances whatever its seed or speed.
// A traced run executes every request twice, traced and untraced in
// alternating order, so the two samples compare the same inputs.
func closedLoop(cfg config, res *result, n int, warm time.Duration, setup func() error, do request) (loopStats, error) {
	run := func(inst int, tr *tracer, rec bool) sample {
		res.attempted++
		start := time.Now()
		d, err := do(inst, tr, rec)
		if err != nil {
			res.fail("request", err)
		}
		return sample{inst: inst, start: start, took: d}
	}
	warmOrd := newOrder(^cfg.seed, n)
	for i, start := 0, time.Now(); i == 0 || time.Since(start) < warm; i++ {
		run(warmOrd.at(i), nil, false)
	}
	ord := newOrder(cfg.seed, n)
	st := loopStats{probe: newProbe()}
	start := st.probe.start
	for ; time.Since(start) < cfg.window; st.requests++ {
		if len(st.setups)*int(cfg.window) <= setupRuns*int(time.Since(start)) {
			t0 := time.Now()
			if err := setup(); err != nil {
				return st, err
			}
			st.setups = append(st.setups, sample{start: t0, took: time.Since(t0)})
		}
		inst := ord.at(st.requests)
		switch {
		case !cfg.trace:
			st.reqs = append(st.reqs, run(inst, nil, true))
		case st.requests%2 == 0:
			st.traced = append(st.traced, ms(run(inst, res.tr, true).took))
			st.reqs = append(st.reqs, run(inst, nil, true))
		default:
			st.reqs = append(st.reqs, run(inst, nil, true))
			st.traced = append(st.traced, ms(run(inst, res.tr, true).took))
		}
		st.probe.between()
	}
	st.elapsed = time.Since(start)
	if full := st.requests / n * n; full > 0 {
		st.reqs = st.reqs[:full]
		if len(st.traced) > 0 {
			st.traced = st.traced[:full]
		}
	}
	return st, nil
}

// report fills a closed loop's metrics. At reference speed: req_per_s
// is the requests per second of request time and req_geomean_ms the
// geometric mean over instances of each instance's mean latency, both
// over whole passes, and setup_s is the median set-up. rss_mb is the
// median resident set; req_p50_ms and req_tail_ms are as measured.
func (st loopStats) report(res *result) {
	lat := make([]float64, len(st.reqs))
	sum := map[int]float64{}
	count := map[int]int{}
	for i, x := range st.reqs {
		lat[i] = ms(x.took)
		sum[x.inst] += st.probe.ms(x)
		count[x.inst]++
	}
	means := make([]float64, 0, len(sum))
	total := 0.0
	for inst, s := range sum {
		means = append(means, s/float64(count[inst]))
		total += s / float64(count[inst])
	}
	fmt.Fprintf(os.Stderr, "bench: %d requests in %.1f s; host slowdown %.3f; req_tail_ms is p%.2f of %d\n",
		st.requests, st.elapsed.Seconds(), st.probe.hostSlowdown(), 100*tailQ(len(lat)), len(lat))
	m := res.metrics
	if total > 0 {
		m["req_per_s"] = 1000 * float64(len(means)) / total
	}
	m["req_geomean_ms"] = geomean(means)
	m["setup_s"] = st.probe.medianSeconds(st.setups)
	m["rss_mb"] = st.probe.rssMB()
	m["bench.host_slowdown"] = st.probe.hostSlowdown()
	if len(st.traced) > 0 {
		m["bench.trace_overhead_frac"] = median(st.traced)/median(lat) - 1
	}
	m["req_p50_ms"] = median(lat)
	m["req_tail_ms"] = tail(lat)
}
