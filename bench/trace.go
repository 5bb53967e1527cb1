package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one call the harness made into a layer. Its layer is the part
// of Name before the first dot; the root span of every request is
// "bench.request".
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced requests run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request opens the root span of a new request and returns the
// request's id and the span's.
func (t *tracer) request() (req, id int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	t.reqs++
	req = t.reqs
	t.mu.Unlock()
	return req, t.begin(req, 0, "bench.request")
}

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(req, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, ID: len(t.spans) + 1, Parent: parent, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a finished span from start to end under parent; a root
// span (parent 0) opens a new request. It returns the request's id and
// the span's.
func (t *tracer) record(req, parent int, name string, start, end time.Time) (int, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent == 0 {
		t.reqs++
		req = t.reqs
	}
	t.spans = append(t.spans, span{Name: name, Req: req, ID: len(t.spans) + 1, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return req, len(t.spans)
}

// timed runs f inside a span and returns f's wall time, traced or not.
func (t *tracer) timed(req, parent int, name string, f func()) time.Duration {
	id := t.begin(req, parent, name)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes sums each layer's self time — span time minus the part of
// it that child spans cover — and the total time of root spans.
func (t *tracer) selfTimes() (self map[string]int64, requestNs int64, requests int) {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = map[string]int64{}
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		dur := s.End - s.Start
		if s.Parent == 0 {
			requestNs += dur
			requests++
		}
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[layerOf(s.Name)] += dur - covered
	}
	return self, requestNs, requests
}

// layerMetrics adds each layer's self time per request and the share of
// request time the layers below the harness cover.
func (t *tracer) layerMetrics(m map[string]float64) {
	self, total, n := t.selfTimes()
	if n == 0 || total == 0 {
		return
	}
	for layer, ns := range self {
		m[layer+".self_ms_per_req"] = float64(ns) / 1e6 / float64(n)
	}
	m["bench.trace_coverage_frac"] = 1 - float64(self["bench"])/float64(total)
}

// summarize prints each layer's self time and share of request time.
func (t *tracer) summarize(w io.Writer) {
	self, total, n := t.selfTimes()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(a, b int) bool { return self[layers[a]] > self[layers[b]] })
	fmt.Fprintf(w, "trace: %d requests, %d spans, %.1f ms of request time\n", n, len(t.spans), float64(total)/1e6)
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = float64(self[l]) / float64(total)
		}
		fmt.Fprintf(w, "trace:   %-9s self %10.1f ms  %5.1f%%\n", l, float64(self[l])/1e6, 100*share)
	}
}

// write stores the spans as a JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
