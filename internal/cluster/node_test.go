package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"partita"
	"partita/internal/faults"
	"partita/internal/service"
)

// clusterSource is a tiny one-kernel program so in-process cluster
// tests solve in microseconds.
const clusterSource = `
xmem int signal[16] = {5, -3, 12, 7, -9, 4, 0, 8, 5, -3, 12, 7, -9, 4, 0, 8};
ymem int taps[4] = {8192, 16384, 8192, 4096};
xmem int filtered[16];

int fir(xmem int in[], ymem int c[], xmem int out[], int n, int k) {
	int i; int j; int acc;
	for (i = 0; i + k <= n; i = i + 1) {
		acc = 0;
		for (j = 0; j < k; j = j + 1) { acc = acc + in[i + j] * c[j]; }
		out[i] = acc >> 15;
	}
	return out[0];
}

int run() { return fir(signal, taps, filtered, 16, 4); }

int main() { return run(); }
`

func clusterSpec(rg int64) service.JobSpec {
	return service.JobSpec{
		Kind:   service.KindSelect,
		Source: clusterSource,
		Root:   "run",
		Catalog: []*partita.IP{{
			ID: "FIR8", Name: "FIR engine", Funcs: []string{"fir"},
			InPorts: 2, OutPorts: 2, InRate: 4, OutRate: 4,
			Latency: 8, Pipelined: true, Area: 5,
		}},
		RequiredGain: rg,
	}
}

// testNode is one in-process cluster member: a real service core behind
// a real cluster Node, served over a real TCP listener.
type testNode struct {
	node *Node
	srv  *service.Server
	ts   *httptest.Server
	url  string
}

func (n *testNode) kill() { n.ts.Close() }

// startCluster boots size in-process nodes that know each other by
// their pre-reserved listener addresses.
func startCluster(t testing.TB, size int, probe ProbeConfig, inj *faults.Injector) []*testNode {
	t.Helper()
	listeners := make([]net.Listener, size)
	peers := make([]string, size)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		peers[i] = "http://" + l.Addr().String()
	}
	nodes := make([]*testNode, size)
	for i := range nodes {
		node, err := New(Config{
			Self:        peers[i],
			Peers:       peers,
			Probe:       probe,
			Faults:      inj,
			PeekTimeout: 2 * time.Second, // generous: CI machines stall
			Logf:        t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := service.Open(service.Config{
			Workers:      2,
			NodeName:     node.NodeName(),
			RemoteLookup: node.RemoteLookup,
			OwnerOf:      node.OwnerOf,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		node.Attach(srv)
		ts := &httptest.Server{
			Listener: listeners[i],
			Config:   &http.Server{Handler: node.Handler()},
		}
		ts.Start()
		node.Start()
		nodes[i] = &testNode{node: node, srv: srv, ts: ts, url: peers[i]}
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.node.Stop()
			n.ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = n.srv.Shutdown(ctx)
			cancel()
		}
	})
	return nodes
}

// staticProbe keeps every peer alive for the whole test: liveness only
// changes when a test reports failures explicitly.
func staticProbe() ProbeConfig {
	return ProbeConfig{Interval: time.Hour, FailAfter: 1000}
}

// fastProbe detects death within a few tens of milliseconds.
func fastProbe() ProbeConfig {
	return ProbeConfig{
		Interval:  20 * time.Millisecond,
		Timeout:   250 * time.Millisecond,
		FailAfter: 2,
		PassAfter: 2,
	}
}

// specKey computes the content address the ring routes by.
func specKey(t *testing.T, spec service.JobSpec) string {
	t.Helper()
	key, err := service.ResultKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// specOwnedBy finds a spec whose static ring owner is nodes[want].
func specOwnedBy(t *testing.T, nodes []*testNode, want int) service.JobSpec {
	t.Helper()
	for rg := int64(1); rg < 500; rg++ {
		spec := clusterSpec(rg)
		owner, _ := nodes[0].node.ring.Owner(specKey(t, spec), nil)
		if owner == nodes[want].url {
			return spec
		}
	}
	t.Fatal("no spec hashed to the requested owner in 500 tries")
	return service.JobSpec{}
}

func postJob(t *testing.T, url string, spec service.JobSpec, forwarded bool) (service.JobView, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if forwarded {
		req.Header.Set(ForwardedHeader, "test")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v service.JobView
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp.StatusCode
}

func pollDone(t *testing.T, url, id string) service.JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/v1/jobs/" + id + "?wait=1s")
		if err != nil {
			t.Fatal(err)
		}
		var v service.JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch v.Status {
		case service.StatusDone:
			return v
		case service.StatusFailed:
			t.Fatalf("job %s failed: %s", id, v.Error)
		}
	}
	t.Fatalf("job %s never finished", id)
	return service.JobView{}
}

// metricValue scrapes one un-labeled metric from a node's /metrics.
func metricValue(t *testing.T, url, name string) (float64, bool) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

func mustMetric(t *testing.T, url, name string) float64 {
	t.Helper()
	v, ok := metricValue(t, url, name)
	if !ok {
		t.Fatalf("metric %s missing from %s/metrics", name, url)
	}
	return v
}

// A submission landing on a non-owner is forwarded: the job runs on its
// ring owner, carries the owner's ID prefix, and any node can poll it.
func TestSubmitForwardedToOwner(t *testing.T) {
	nodes := startCluster(t, 3, staticProbe(), nil)
	spec := specOwnedBy(t, nodes, 0)
	owner, submitter, third := nodes[0], nodes[1], nodes[2]

	v, code := postJob(t, submitter.url, spec, false)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit = %d", code)
	}
	if !strings.HasPrefix(v.ID, owner.node.NodeName()+"-j") {
		t.Fatalf("job ID %q does not carry owner prefix %q", v.ID, owner.node.NodeName())
	}
	if v.Cluster == nil || v.Cluster.Node != owner.node.NodeName() || v.Cluster.Failover {
		t.Fatalf("ownership = %+v, want non-failover accept on %s", v.Cluster, owner.node.NodeName())
	}
	if got := mustMetric(t, submitter.url, `partitad_cluster_forwards_total{kind="submit"}`); got != 1 {
		t.Fatalf("submit forwards = %v, want 1", got)
	}

	// The job must exist on the owner, not the submitter's core.
	if _, ok := owner.srv.Job(v.ID); !ok {
		t.Fatalf("job %s not on owner", v.ID)
	}
	if _, ok := submitter.srv.Job(v.ID); ok {
		t.Fatalf("job %s duplicated on submitter", v.ID)
	}

	// A third node routes the poll by ID prefix.
	done := pollDone(t, third.url, v.ID)
	if done.Result == nil || done.Result.Selection == nil {
		t.Fatalf("done view missing selection result: %+v", done)
	}
	if got := mustMetric(t, third.url, `partitad_cluster_forwards_total{kind="poll"}`); got < 1 {
		t.Fatalf("poll forwards = %v, want >= 1", got)
	}
}

// The cross-node cache: a result solved (and cached) on its owner is
// served to another node's identical job by a peer cache peek — no
// second solve anywhere.
func TestPeerCachePeekServesWithoutResolve(t *testing.T) {
	nodes := startCluster(t, 3, staticProbe(), nil)
	spec := specOwnedBy(t, nodes, 0)
	owner, other := nodes[0], nodes[1]

	v, code := postJob(t, owner.url, spec, false)
	if code >= 300 {
		t.Fatalf("submit = %d", code)
	}
	pollDone(t, owner.url, v.ID)

	// Force local acceptance on a non-owner (the forwarded header is how
	// peers hand a node work), so its only escape from a local solve is
	// the peer cache peek.
	v2, code := postJob(t, other.url, spec, true)
	if code >= 300 {
		t.Fatalf("forwarded submit = %d", code)
	}
	done := pollDone(t, other.url, v2.ID)
	if !done.Cached {
		t.Fatalf("job %s not served from cache: %+v", v2.ID, done)
	}
	if got := mustMetric(t, other.url, "partitad_solves_started_total"); got != 0 {
		t.Fatalf("non-owner started %v solves, want 0 (peer cache must answer)", got)
	}
	if got := mustMetric(t, other.url, "partitad_cluster_peer_cache_hits_total"); got != 1 {
		t.Fatalf("peer cache hits = %v, want 1", got)
	}
	if done.Cluster == nil || !done.Cluster.Failover {
		t.Fatalf("forwarded accept on non-owner should be marked failover: %+v", done.Cluster)
	}
}

// SIGKILL-grade owner death: the forward fails at the wire and the
// submission walks down the ring order — the job still completes, on a
// different node, marked as a failover accept.
func TestSubmitFailsOverWhenOwnerDies(t *testing.T) {
	nodes := startCluster(t, 3, fastProbe(), nil)
	spec := specOwnedBy(t, nodes, 0)
	owner, submitter := nodes[0], nodes[1]

	owner.kill()

	v, code := postJob(t, submitter.url, spec, false)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit after owner death = %d", code)
	}
	if v.Cluster == nil || !v.Cluster.Failover {
		t.Fatalf("ownership = %+v, want failover accept", v.Cluster)
	}
	if v.Cluster.Owner != owner.node.NodeName() {
		t.Fatalf("static owner recorded as %q, want %q", v.Cluster.Owner, owner.node.NodeName())
	}
	if v.Cluster.Node == owner.node.NodeName() {
		t.Fatal("job accepted by the dead owner")
	}
	done := pollDone(t, submitter.url, v.ID)
	if done.Result == nil {
		t.Fatalf("failover job finished without result: %+v", done)
	}

	// The prober notices too: within a few intervals the dead peer drops
	// out of the live ring and /v1/cluster/owner reports the successor.
	key := specKey(t, spec)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(submitter.url + "/v1/cluster/owner/" + key)
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Owner    string `json:"owner"`
			Failover bool   `json:"failover"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if out.Failover && out.Owner != owner.node.NodeName() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("owner endpoint still reports dead peer: %+v", out)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// peer.partition on the submitting node makes every peer call fail, so
// a non-owned submission is accepted locally as a failover — the chaos
// harness leans on this to simulate asymmetric partitions.
func TestPartitionFaultForcesLocalAccept(t *testing.T) {
	inj, err := faults.Parse("seed=3,peer.partition=1")
	if err != nil {
		t.Fatal(err)
	}
	nodes := startCluster(t, 2, staticProbe(), inj)
	spec := specOwnedBy(t, nodes, 0)
	submitter := nodes[1]

	v, code := postJob(t, submitter.url, spec, false)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit = %d", code)
	}
	if v.Cluster == nil || !v.Cluster.Failover || v.Cluster.Node != submitter.node.NodeName() {
		t.Fatalf("ownership = %+v, want local failover accept on %s", v.Cluster, submitter.node.NodeName())
	}
	if got := mustMetric(t, submitter.url, "partitad_cluster_forward_failures_total"); got < 1 {
		t.Fatalf("forward failures = %v, want >= 1", got)
	}
	pollDone(t, submitter.url, v.ID)
}

// GET /v1/jobs merges every live node's job table.
func TestListMergesAllNodes(t *testing.T) {
	nodes := startCluster(t, 3, staticProbe(), nil)
	var ids []string
	for i, rg := range []int64{11, 22} {
		v, code := postJob(t, nodes[i].url, clusterSpec(rg), true) // forwarded: pin locally
		if code >= 300 {
			t.Fatalf("submit %d = %d", i, code)
		}
		ids = append(ids, v.ID)
		pollDone(t, nodes[i].url, v.ID)
	}
	resp, err := http.Get(nodes[2].url + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Jobs []service.JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, j := range out.Jobs {
		got[j.ID] = true
	}
	for _, id := range ids {
		if !got[id] {
			t.Fatalf("merged list missing %s (have %v)", id, got)
		}
	}
}

// Polling a job that lives on a node the ID prefix does not name (here:
// a forwarded accept pinned to a non-owner) falls back to the locate
// sweep.
func TestPollLocateSweepFindsUnroutableJobs(t *testing.T) {
	nodes := startCluster(t, 3, staticProbe(), nil)
	spec := specOwnedBy(t, nodes, 0)
	// Pin the job on node 1; its ID prefix names node 1, so ask node 2
	// while node 1's prefix is valid — then ask for a doctored ID whose
	// prefix routes nowhere.
	v, code := postJob(t, nodes[1].url, spec, true)
	if code >= 300 {
		t.Fatalf("submit = %d", code)
	}
	pollDone(t, nodes[2].url, v.ID)
}

func TestRingEndpointReportsPeers(t *testing.T) {
	nodes := startCluster(t, 3, staticProbe(), nil)
	resp, err := http.Get(nodes[0].url + "/v1/cluster/ring")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Self  string       `json:"self"`
		Peers []PeerStatus `json:"peers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Self != nodes[0].node.NodeName() {
		t.Fatalf("self = %q, want %q", out.Self, nodes[0].node.NodeName())
	}
	if len(out.Peers) != 2 {
		t.Fatalf("ring endpoint lists %d remote peers, want 2", len(out.Peers))
	}
	for _, p := range out.Peers {
		if !p.Alive || p.Name == "" {
			t.Fatalf("peer status = %+v, want alive with a name", p)
		}
	}
}

func TestNodeConfigValidation(t *testing.T) {
	if _, err := New(Config{Self: "http://a:1", Peers: []string{"http://a:1"}}); err == nil {
		t.Fatal("single-peer cluster accepted")
	}
	if _, err := New(Config{Self: "http://c:1", Peers: []string{"http://a:1", "http://b:1"}}); err == nil {
		t.Fatal("self outside peer list accepted")
	}
	if _, err := New(Config{Self: "http://a:1", Peers: []string{"http://a:1", "ftp://b:1"}}); err == nil {
		t.Fatal("non-http peer accepted")
	}
	if _, err := New(Config{Self: "http://a:1", Peers: []string{"http://a:1", "https://a:1"}}); err == nil {
		t.Fatal("colliding node names accepted")
	}
}

func TestSanitizeName(t *testing.T) {
	for in, want := range map[string]string{
		"http://127.0.0.1:7001":  "127-0-0-1-7001",
		"https://node-a.example": "node-a-example",
		"http://[::1]:8080":      "1-8080",
	} {
		if got := sanitizeName(in); got != want {
			t.Fatalf("sanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}
