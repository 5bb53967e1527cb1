// Package faults is a deterministic, seed-driven fault-injection layer
// for exercising partitad's failure paths. Injection points are named
// strings ("worker.panic", "journal.write", ...) configured from a
// compact spec such as
//
//	seed=42,worker.panic=0.05,solver.stall=0.2,solver.stall.delay=25ms,journal.write=0.1
//
// Each point draws from its own PRNG stream, seeded from the global
// seed and the point's name, so firing sequences are reproducible per
// point regardless of the order in which unrelated points are
// consulted. A nil *Injector is the disabled state: every method is
// nil-safe and returns the zero answer without locking, so production
// paths pay one pointer comparison when injection is off.
package faults

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// EnvVar is the environment variable partitad consults when no -faults
// flag is given.
const EnvVar = "PARTITAD_FAULTS"

// Well-known injection points threaded through the service. Callers may
// use arbitrary names; these are the ones the chaos suite exercises.
const (
	// WorkerPanic panics a worker goroutine mid-job.
	WorkerPanic = "worker.panic"
	// SolverStall delays a solve before it starts (see SolverStallDelay).
	SolverStall = "solver.stall"
	// SolverStallDelay configures the stall duration (default 25ms).
	SolverStallDelay = "solver.stall.delay"
	// JournalWrite fails a journal append with an injected error.
	JournalWrite = "journal.write"
	// JournalShortWrite tears a journal append mid-frame, leaving a
	// truncated tail for recovery to repair.
	JournalShortWrite = "journal.shortwrite"
	// JournalSync fails the fsync after a journal append (the frame
	// itself lands), driving the journal into its degraded state.
	JournalSync = "journal.sync"
	// QueueFull reports the admission queue as full.
	QueueFull = "queue.full"
	// ClockSkew configures a constant offset applied by Now (duration).
	ClockSkew = "clock.skew"
	// PeerTimeout stalls a cluster peer call until it times out (see
	// PeerTimeoutDelay), exercising the forwarding failover path.
	PeerTimeout = "peer.timeout"
	// PeerTimeoutDelay configures the injected peer stall (default 1s).
	PeerTimeoutDelay = "peer.timeout.delay"
	// Peer5xx answers a cluster peer call with an injected 502.
	Peer5xx = "peer.5xx"
	// PeerPartition fails every outbound peer call — forwards, cache
	// peeks, and health probes — as if the network were cut.
	PeerPartition = "peer.partition"
)

// point is one configured injection point: a firing probability and an
// optional duration parameter, with its own deterministic stream.
type point struct {
	prob float64
	dur  time.Duration
	rng  *rand.Rand
}

// Injector decides, deterministically, whether each consulted injection
// point fires. The zero value is not useful; build one with Parse or
// FromEnv. A nil Injector is valid and permanently disabled.
type Injector struct {
	seed int64
	spec string

	mu     sync.Mutex
	points map[string]*point
	counts map[string]uint64
}

// Parse builds an Injector from a spec string. The spec is a
// comma-separated list of key=value pairs: "seed" sets the global seed
// (default 1), values parse as a firing probability in [0,1] or, for
// parameter points, as a time.Duration. An empty spec returns nil (the
// disabled injector).
func Parse(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" || spec == "0" {
		return nil, nil
	}
	inj := &Injector{
		seed:   1,
		spec:   spec,
		points: map[string]*point{},
		counts: map[string]uint64{},
	}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if !ok || key == "" || val == "" {
			return nil, fmt.Errorf("faults: malformed entry %q (want key=value)", kv)
		}
		if key == "seed" {
			s, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q: %v", val, err)
			}
			inj.seed = s
			continue
		}
		if d, err := time.ParseDuration(val); err == nil && strings.IndexFunc(val, isUnitLetter) >= 0 {
			if d < 0 {
				return nil, fmt.Errorf("faults: negative duration for %s: %v", key, d)
			}
			inj.points[key] = &point{dur: d}
			continue
		}
		p, err := strconv.ParseFloat(val, 64)
		if err != nil || p < 0 || p > 1 {
			return nil, fmt.Errorf("faults: value for %s must be a probability in [0,1] or a duration, got %q", key, val)
		}
		inj.points[key] = &point{prob: p}
	}
	for name, pt := range inj.points {
		h := fnv.New64a()
		_, _ = h.Write([]byte(name))
		pt.rng = rand.New(rand.NewSource(inj.seed ^ int64(h.Sum64())))
	}
	return inj, nil
}

func isUnitLetter(r rune) bool {
	return r == 's' || r == 'm' || r == 'h' || r == 'u' || r == 'n' || r == 'µ'
}

// FromEnv parses EnvVar; a malformed spec disables injection and
// reports the error.
func FromEnv() (*Injector, error) { return Parse(os.Getenv(EnvVar)) }

// FromFlagOrEnv resolves the injection spec the way partitad does: an
// explicit -faults flag value wins, an empty flag falls back to EnvVar,
// and an empty (or "off"/"0") result disables injection.
func FromFlagOrEnv(flagSpec string) (*Injector, error) {
	if strings.TrimSpace(flagSpec) != "" {
		return Parse(flagSpec)
	}
	return FromEnv()
}

// Enabled reports whether any injection is configured.
func (i *Injector) Enabled() bool { return i != nil }

// Spec returns the spec the injector was built from ("" when disabled).
func (i *Injector) Spec() string {
	if i == nil {
		return ""
	}
	return i.spec
}

// Fire rolls the named point's probability and reports whether the
// fault fires, counting it when it does. Unconfigured points and a nil
// injector never fire.
func (i *Injector) Fire(name string) bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	pt, ok := i.points[name]
	if !ok || pt.prob <= 0 {
		return false
	}
	if pt.rng.Float64() >= pt.prob {
		return false
	}
	i.counts[name]++
	return true
}

// Err returns an injected error when the named point fires, nil
// otherwise.
func (i *Injector) Err(name string) error {
	if i.Fire(name) {
		return fmt.Errorf("faults: injected %s", name)
	}
	return nil
}

// Duration returns the named parameter point's configured duration, or
// def when absent.
func (i *Injector) Duration(name string, def time.Duration) time.Duration {
	if i == nil {
		return def
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if pt, ok := i.points[name]; ok && pt.dur > 0 {
		return pt.dur
	}
	return def
}

// Now is time.Now shifted by the configured clock.skew (zero skew, and
// no per-call counting, when disabled or unconfigured).
func (i *Injector) Now() time.Time {
	if i == nil {
		return time.Now()
	}
	return time.Now().Add(i.Duration(ClockSkew, 0))
}

// Counts snapshots how often each point has fired, for /metrics.
func (i *Injector) Counts() map[string]uint64 {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make(map[string]uint64, len(i.counts))
	for k, v := range i.counts {
		out[k] = v
	}
	return out
}

// Points lists the configured point names in sorted order.
func (i *Injector) Points() []string {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make([]string, 0, len(i.points))
	for k := range i.points {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
