package cluster

import (
	"fmt"
	"io"
	"sync/atomic"
)

// Metrics are the cluster-layer counters, rendered as an extra section
// appended to the core service's /metrics output. Keeping them here —
// not in service.Metrics — preserves the routing/execution split: a
// single-node daemon's metrics page has no cluster rows at all.
type Metrics struct {
	forwardsSubmit  atomic.Uint64
	forwardsPoll    atomic.Uint64
	forwardFailures atomic.Uint64
	failoverAccepts atomic.Uint64
	peerCacheHits   atomic.Uint64
	peerCacheMisses atomic.Uint64
	probeFailures   atomic.Uint64
}

// write renders the cluster metric section in Prometheus text format.
func (m *Metrics) write(w io.Writer, statuses []PeerStatus) {
	alive := 0
	for _, s := range statuses {
		if s.Alive {
			alive++
		}
	}
	fmt.Fprintf(w, "# HELP partitad_cluster_peers Remote peers in the static ring configuration.\n# TYPE partitad_cluster_peers gauge\npartitad_cluster_peers %d\n", len(statuses))
	fmt.Fprintf(w, "# HELP partitad_cluster_peers_alive Remote peers currently considered alive.\n# TYPE partitad_cluster_peers_alive gauge\npartitad_cluster_peers_alive %d\n", alive)
	fmt.Fprintf(w, "# HELP partitad_cluster_peer_up Per-peer liveness as seen from this node.\n# TYPE partitad_cluster_peer_up gauge\n")
	for _, s := range statuses {
		fmt.Fprintf(w, "partitad_cluster_peer_up{peer=%q} %d\n", s.Name, b2i(s.Alive))
	}
	fmt.Fprintf(w, "# HELP partitad_cluster_forwards_total Requests forwarded to their ring owner, by kind.\n# TYPE partitad_cluster_forwards_total counter\n")
	fmt.Fprintf(w, "partitad_cluster_forwards_total{kind=\"submit\"} %d\n", m.forwardsSubmit.Load())
	fmt.Fprintf(w, "partitad_cluster_forwards_total{kind=\"poll\"} %d\n", m.forwardsPoll.Load())
	fmt.Fprintf(w, "# HELP partitad_cluster_forward_failures_total Forwarded calls that failed (network error, timeout, or peer 5xx).\n# TYPE partitad_cluster_forward_failures_total counter\npartitad_cluster_forward_failures_total %d\n", m.forwardFailures.Load())
	fmt.Fprintf(w, "# HELP partitad_cluster_failover_accepts_total Jobs accepted by this node in place of an unreachable static owner.\n# TYPE partitad_cluster_failover_accepts_total counter\npartitad_cluster_failover_accepts_total %d\n", m.failoverAccepts.Load())
	fmt.Fprintf(w, "# HELP partitad_cluster_peer_cache_hits_total Solves avoided because a peer's result cache answered.\n# TYPE partitad_cluster_peer_cache_hits_total counter\npartitad_cluster_peer_cache_hits_total %d\n", m.peerCacheHits.Load())
	fmt.Fprintf(w, "# HELP partitad_cluster_peer_cache_misses_total Peer cache peeks that found no result anywhere.\n# TYPE partitad_cluster_peer_cache_misses_total counter\npartitad_cluster_peer_cache_misses_total %d\n", m.peerCacheMisses.Load())
	fmt.Fprintf(w, "# HELP partitad_cluster_probe_failures_total Health probes that failed.\n# TYPE partitad_cluster_probe_failures_total counter\npartitad_cluster_probe_failures_total %d\n", m.probeFailures.Load())
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
