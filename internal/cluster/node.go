package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"partita/internal/faults"
	"partita/internal/service"
)

// ForwardedHeader marks a request that already crossed one node hop.
// Forwarded requests are always handled locally — even if the receiving
// node disagrees about ownership — so transiently divergent ring views
// can never ping-pong a request between nodes. (Handling locally is
// always safe: jobs are content-addressed and idempotent.)
const ForwardedHeader = "X-Partitad-Forwarded"

// maxSubmitBody mirrors the service's submit body cap.
const maxSubmitBody = 8 << 20

// Config tunes a cluster Node.
type Config struct {
	// Self is this node's advertised base URL; it must appear in Peers.
	Self string
	// Peers is the static cluster membership, self included (base URLs,
	// e.g. "http://10.0.0.1:8080").
	Peers []string
	// Replicas is the virtual-node count per peer (default 64).
	Replicas int
	// Probe tunes peer health detection.
	Probe ProbeConfig
	// ForwardTimeout bounds one forwarded submit (default 10s; poll
	// forwards add the long-poll cap on top).
	ForwardTimeout time.Duration
	// PeekTimeout bounds one peer result-cache peek across all peers
	// (default 300ms — a peek must stay far cheaper than a solve).
	PeekTimeout time.Duration
	// Faults is the optional fault injector shared with the service
	// (peer.timeout, peer.5xx, peer.partition).
	Faults *faults.Injector
	// Logf receives routing and membership events (default: discard).
	Logf func(string, ...any)
}

func (c Config) withDefaults() Config {
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 10 * time.Second
	}
	if c.PeekTimeout <= 0 {
		c.PeekTimeout = 300 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Node is one partitad's cluster layer: it owns the ring, the prober,
// and the HTTP surface, wrapping a service.Server core. Build with New,
// wire the hooks into the service config, Attach the built server, then
// Start.
type Node struct {
	cfg    Config
	self   string
	names  map[string]string // peer URL → short node name
	urls   map[string]string // short node name → peer URL
	ring   *Ring
	prober *Prober
	hc     *http.Client
	inj    *faults.Injector

	metrics *Metrics
	mux     *http.ServeMux
	srv     *service.Server
}

// New validates the peer configuration and builds the Node. The
// service server does not exist yet at this point — the intended order
// is: node := New(...); then service.Open with RemoteLookup/OwnerOf
// pointing at the node; then node.Attach(srv).
func New(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Peers) < 2 {
		return nil, fmt.Errorf("cluster: need at least 2 peers, got %d", len(cfg.Peers))
	}
	peers := make([]string, len(cfg.Peers))
	for i, p := range cfg.Peers {
		peers[i] = strings.TrimRight(strings.TrimSpace(p), "/")
		if !strings.HasPrefix(peers[i], "http://") && !strings.HasPrefix(peers[i], "https://") {
			return nil, fmt.Errorf("cluster: peer %q is not an http(s) base URL", p)
		}
	}
	self := strings.TrimRight(strings.TrimSpace(cfg.Self), "/")
	ring, err := NewRing(peers, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:     cfg,
		self:    self,
		names:   map[string]string{},
		urls:    map[string]string{},
		ring:    ring,
		hc:      &http.Client{},
		inj:     cfg.Faults,
		metrics: &Metrics{},
	}
	found := false
	for _, p := range peers {
		name := sanitizeName(p)
		if prev, dup := n.urls[name]; dup {
			return nil, fmt.Errorf("cluster: peers %q and %q share node name %q", prev, p, name)
		}
		n.names[p] = name
		n.urls[name] = p
		if p == self {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: -self %q is not in the peer list %v", cfg.Self, peers)
	}
	var remotes []string
	for _, p := range ring.Peers() {
		if p != self {
			remotes = append(remotes, p)
		}
	}
	n.prober = newProber(remotes, cfg.Probe, cfg.Faults, n.metrics, cfg.Logf)

	n.mux = http.NewServeMux()
	n.mux.HandleFunc("POST /v1/jobs", n.handleSubmit)
	n.mux.HandleFunc("GET /v1/jobs", n.handleList)
	n.mux.HandleFunc("GET /v1/jobs/{id}", n.handleGet)
	n.mux.HandleFunc("GET /v1/cluster/cache/{key}", n.handleCachePeek)
	n.mux.HandleFunc("GET /v1/cluster/owner/{key}", n.handleOwner)
	n.mux.HandleFunc("GET /v1/cluster/ring", n.handleRing)
	n.mux.HandleFunc("GET /metrics", n.handleMetrics)
	n.mux.HandleFunc("/", n.local) // /healthz, /readyz, everything else
	return n, nil
}

// sanitizeName derives the short node name used in job-ID prefixes and
// metric labels from a peer base URL: scheme stripped, every
// non-alphanumeric byte mapped to '-' ("http://127.0.0.1:7001" →
// "127-0-0-1-7001").
func sanitizeName(peer string) string {
	s := strings.TrimPrefix(strings.TrimPrefix(peer, "https://"), "http://")
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			b.WriteByte(c)
		default:
			if n := b.Len(); n > 0 && b.String()[n-1] != '-' {
				b.WriteByte('-')
			}
		}
	}
	return strings.TrimRight(b.String(), "-")
}

// NodeName returns this node's short name — the service's
// Config.NodeName, so job IDs self-describe which node accepted them.
func (n *Node) NodeName() string { return n.names[n.self] }

// Attach wires the built service core into the node. Must be called
// before the handler serves traffic.
func (n *Node) Attach(srv *service.Server) { n.srv = srv }

// Start launches the health probe loops.
func (n *Node) Start() { n.prober.Start() }

// Handler returns the cluster HTTP surface (a superset of the service
// surface).
func (n *Node) Handler() http.Handler { return n.mux }

// Leave announces ring departure ahead of a drain: /readyz flips to
// "leaving-ring" so peers and balancers steer away while in-flight work
// finishes.
func (n *Node) Leave() { n.srv.BeginLeave() }

// Stop halts the probe loops.
func (n *Node) Stop() { n.prober.Stop() }

// alive reports ring membership as seen from this node. Self is always
// a member of its own ring: a node with a sick view of the network must
// still serve what it can.
func (n *Node) alive(peer string) bool {
	if peer == n.self {
		return true
	}
	return n.prober.Alive(peer)
}

// OwnerOf is the service.Config.OwnerOf hook: it stamps accepted jobs
// with this node's identity and the key's static ring owner. Accepting
// a key whose static owner is another peer is, by construction, a
// failover accept (the owner was unreachable, or a peer explicitly
// handed the job to us).
func (n *Node) OwnerOf(key string) *service.Ownership {
	static, _ := n.ring.Owner(key, nil)
	o := &service.Ownership{
		Node:     n.names[n.self],
		Owner:    n.names[static],
		Failover: static != n.self,
	}
	if o.Failover {
		n.metrics.failoverAccepts.Add(1)
	}
	return o
}

// RemoteLookup is the service.Config.RemoteLookup hook: before solving
// a local cache miss, peek every live peer's result cache in parallel
// and serve the first hit. The whole peek is bounded by PeekTimeout so
// a slow peer can only ever delay a solve, never block it.
func (n *Node) RemoteLookup(key string) (*service.JobResult, bool) {
	var peers []string
	for _, p := range n.ring.Order(key) {
		if p != n.self && n.alive(p) {
			peers = append(peers, p)
		}
	}
	if len(peers) == 0 {
		return nil, false
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.PeekTimeout)
	defer cancel()
	ch := make(chan *service.JobResult, len(peers))
	for _, peer := range peers {
		go func(peer string) { ch <- n.peekPeer(ctx, peer, key) }(peer)
	}
	for range peers {
		if res := <-ch; res != nil {
			n.metrics.peerCacheHits.Add(1)
			return res, true
		}
	}
	n.metrics.peerCacheMisses.Add(1)
	return nil, false
}

// peekPeer asks one peer's cache for the key; nil on miss or error.
func (n *Node) peekPeer(ctx context.Context, peer, key string) *service.JobResult {
	resp, err := n.peerDo(ctx, peer, http.MethodGet, "/v1/cluster/cache/"+url.PathEscape(key), nil, nil)
	if err != nil {
		n.prober.ReportFailure(peer, err)
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	var res service.JobResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil
	}
	return &res
}

// peerDo performs one HTTP call to a peer, with the peer fault points
// threaded through: peer.partition fails every call, peer.timeout
// stalls until the context (or the configured delay) expires, peer.5xx
// substitutes a 502. extra headers, when non-nil, are set on the
// request (e.g. the propagated caller deadline).
func (n *Node) peerDo(ctx context.Context, peer, method, pathAndQuery string, body []byte, extra map[string]string) (*http.Response, error) {
	if n.inj.Fire(faults.PeerPartition) {
		return nil, fmt.Errorf("cluster: %s unreachable: injected %s", peer, faults.PeerPartition)
	}
	if n.inj.Fire(faults.PeerTimeout) {
		delay := n.inj.Duration(faults.PeerTimeoutDelay, time.Second)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
		}
		return nil, fmt.Errorf("cluster: %s: injected %s", peer, faults.PeerTimeout)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, peer+pathAndQuery, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set(ForwardedHeader, n.names[n.self])
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range extra {
		req.Header.Set(k, v)
	}
	resp, err := n.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if n.inj.Fire(faults.Peer5xx) {
		resp.Body.Close()
		return nil, fmt.Errorf("cluster: %s: injected %s (HTTP 502)", peer, faults.Peer5xx)
	}
	return resp, nil
}

// local delegates to the wrapped service core.
func (n *Node) local(w http.ResponseWriter, r *http.Request) {
	n.srv.Handler().ServeHTTP(w, r)
}

// handleSubmit routes one submission: forwarded (or unparseable)
// requests are handled locally; otherwise the job's content address
// picks the owner, dead owners are skipped (that is the failover), and
// a forward that fails at the wire walks down the ring order until a
// node accepts — this node included, as the final fallback.
func (n *Node) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(ForwardedHeader) != "" {
		n.local(w, r)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: read body: %w", err))
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	var spec service.JobSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		n.local(w, r) // the core emits the canonical 400
		return
	}
	key, err := service.ResultKey(spec)
	if err != nil {
		n.local(w, r)
		return
	}
	for _, peer := range n.ring.Order(key) {
		if peer == n.self {
			break // this node is the first live choice: accept locally
		}
		if !n.alive(peer) {
			continue // dead owner: its range has failed over down-ring
		}
		n.metrics.forwardsSubmit.Add(1)
		// A forwarded solve inherits the submitter's remaining budget: the
		// caller's deadline header travels with the request so the target
		// node clamps to it instead of running its own full default.
		var extra map[string]string
		if d := r.Header.Get(service.DeadlineHeader); d != "" {
			extra = map[string]string{service.DeadlineHeader: d}
		}
		ctx, cancel := context.WithTimeout(r.Context(), n.cfg.ForwardTimeout)
		resp, err := n.peerDo(ctx, peer, http.MethodPost, "/v1/jobs", body, extra)
		if err == nil && resp.StatusCode < 500 {
			copyResponse(w, resp)
			cancel()
			return
		}
		cancel()
		n.forwardFailed(peer, resp, err)
	}
	n.local(w, r)
}

// forwardFailed records one failed forward and feeds the peer's health
// state so repeated failures evict it from the ring quickly.
func (n *Node) forwardFailed(peer string, resp *http.Response, err error) {
	if resp != nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		err = fmt.Errorf("cluster: %s answered HTTP %d", peer, resp.StatusCode)
	}
	n.metrics.forwardFailures.Add(1)
	n.prober.ReportFailure(peer, err)
	n.cfg.Logf("cluster: forward to %s failed (%v), trying next in ring order", peer, err)
}

// handleGet routes one poll. Local jobs are served directly; cluster
// job IDs carry their accepting node's name, so everything else is
// forwarded by prefix, with a locate sweep over live peers as the
// fallback (covers jobs that moved via failover resubmission).
func (n *Node) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if r.Header.Get(ForwardedHeader) != "" {
		n.local(w, r)
		return
	}
	if _, ok := n.srv.Job(id); ok {
		n.local(w, r)
		return
	}
	pathQ := "/v1/jobs/" + url.PathEscape(id)
	if q := r.URL.RawQuery; q != "" {
		pathQ += "?" + q
	}
	if peer, ok := n.peerForID(id); ok && peer != n.self && n.alive(peer) {
		if n.forwardPoll(w, r, peer, pathQ) {
			return
		}
	}
	// Locate sweep: a short, no-wait existence check per live peer, then
	// the full request (long-poll included) to whichever node has it.
	for _, peer := range n.ring.Peers() {
		if peer == n.self || !n.alive(peer) {
			continue
		}
		ctx, cancel := context.WithTimeout(r.Context(), n.cfg.ForwardTimeout)
		resp, err := n.peerDo(ctx, peer, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, nil)
		found := false
		if err == nil {
			found = resp.StatusCode == http.StatusOK
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		cancel()
		if found && n.forwardPoll(w, r, peer, pathQ) {
			return
		}
	}
	n.local(w, r) // canonical 404
}

// forwardPoll forwards one poll (including its long-poll wait) to peer;
// false means the caller should keep looking.
func (n *Node) forwardPoll(w http.ResponseWriter, r *http.Request, peer, pathQ string) bool {
	// The forward must outlive the service's 30s long-poll cap.
	ctx, cancel := context.WithTimeout(r.Context(), n.cfg.ForwardTimeout+35*time.Second)
	defer cancel()
	resp, err := n.peerDo(ctx, peer, http.MethodGet, pathQ, nil, nil)
	if err != nil {
		n.forwardFailed(peer, nil, err)
		return false
	}
	if resp.StatusCode == http.StatusNotFound || resp.StatusCode >= 500 {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return false
	}
	n.metrics.forwardsPoll.Add(1)
	copyResponse(w, resp)
	return true
}

// handleList merges the local job table with every live peer's.
func (n *Node) handleList(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(ForwardedHeader) != "" {
		n.local(w, r)
		return
	}
	var views []service.JobView
	collect := func(raw []byte) {
		var out struct {
			Jobs []service.JobView `json:"jobs"`
		}
		if json.Unmarshal(raw, &out) == nil {
			views = append(views, out.Jobs...)
		}
	}
	rec := newRecorder()
	n.srv.Handler().ServeHTTP(rec, r)
	collect(rec.body.Bytes())
	for _, peer := range n.ring.Peers() {
		if peer == n.self || !n.alive(peer) {
			continue
		}
		ctx, cancel := context.WithTimeout(r.Context(), n.cfg.ForwardTimeout)
		resp, err := n.peerDo(ctx, peer, http.MethodGet, "/v1/jobs", nil, nil)
		if err == nil && resp.StatusCode == http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			collect(raw)
		}
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		cancel()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

// handleCachePeek answers a peer's cache probe from the local result
// cache: 200 with the result, or 404.
func (n *Node) handleCachePeek(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if res, ok := n.srv.CachedResult(key); ok {
		writeJSON(w, http.StatusOK, res)
		return
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("cluster: key %q not cached here", key))
}

// handleOwner reports routing for one key: who owns it now (among live
// peers), who owns it statically, and the failover order.
func (n *Node) handleOwner(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	static, _ := n.ring.Owner(key, nil)
	owner, ok := n.ring.Owner(key, n.alive)
	if !ok {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("cluster: no live owner for %q", key))
		return
	}
	order := n.ring.Order(key)
	names := make([]string, len(order))
	for i, p := range order {
		names[i] = n.names[p]
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"key":         key,
		"owner":       n.names[owner],
		"ownerUrl":    owner,
		"staticOwner": n.names[static],
		"failover":    owner != static,
		"order":       names,
	})
}

// handleRing reports the node's view of the cluster: every peer, its
// health, and this node's identity.
func (n *Node) handleRing(w http.ResponseWriter, r *http.Request) {
	statuses := n.statuses()
	alive := 0
	for _, s := range statuses {
		if s.Alive {
			alive++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"self":       n.names[n.self],
		"selfUrl":    n.self,
		"peers":      statuses,
		"peersAlive": alive, // remote peers only; self is implicit
	})
}

// statuses snapshots remote peer health with names attached.
func (n *Node) statuses() []PeerStatus {
	statuses := n.prober.Snapshot()
	for i := range statuses {
		statuses[i].Name = n.names[statuses[i].Peer]
	}
	return statuses
}

// handleMetrics renders the core service metrics followed by the
// cluster section.
func (n *Node) handleMetrics(w http.ResponseWriter, r *http.Request) {
	n.srv.Handler().ServeHTTP(w, r)
	n.metrics.write(w, n.statuses())
}

// peerForID maps a node-prefixed job ID back to the peer that issued
// it.
func (n *Node) peerForID(id string) (string, bool) {
	i := strings.LastIndex(id, "-j")
	if i <= 0 {
		return "", false
	}
	peer, ok := n.urls[id[:i]]
	return peer, ok
}

// copyResponse relays a forwarded response to the client.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// recorder captures a delegated handler's body for merging.
type recorder struct {
	code   int
	header http.Header
	body   bytes.Buffer
}

func newRecorder() *recorder                    { return &recorder{code: http.StatusOK, header: http.Header{}} }
func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
