// Package client is the typed Go client for the partitad HTTP/JSON
// API. It wraps submit/poll/wait with per-request timeouts, exponential
// backoff with deterministic jitter, and Retry-After honoring, so
// callers survive daemon restarts, admission-control pushback (429),
// and drains (503) without hand-rolled retry loops.
//
// Retrying a submit is always safe: partitad content-addresses every
// job (partita.CanonicalHash over the spec), so a resubmission either
// coalesces onto the identical in-flight job or is answered from the
// result cache — at-least-once delivery with exactly-once effect.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"partita/internal/service"
)

// Re-exported wire types, so callers need only this package.
type (
	// JobSpec is one job submission (see service.JobSpec).
	JobSpec = service.JobSpec
	// JobView is the daemon's job snapshot (see service.JobView).
	JobView = service.JobView
	// EditRequest is the body of an interactive edit (see
	// service.EditRequest): the deltas to apply on top of a finished
	// select job, plus optional gap/budget overrides.
	EditRequest = service.EditRequest
	// EditDelta is one batch of IP-area / IMP-gain / required-gain
	// edits (see service.EditDelta).
	EditDelta = service.EditDelta
	// PortfolioInfo is the per-engine attribution of a portfolio-mode
	// result (see service.PortfolioInfo).
	PortfolioInfo = service.PortfolioInfo
)

// Job kind and status names, re-exported for convenience.
const (
	KindAnalyze = service.KindAnalyze
	KindSelect  = service.KindSelect
	KindSweep   = service.KindSweep

	StatusQueued  = service.StatusQueued
	StatusRunning = service.StatusRunning
	StatusDone    = service.StatusDone
	StatusFailed  = service.StatusFailed

	// ModePortfolio asks the daemon to race the capacity-bound witness,
	// greedy and the exact solver (plus the seeded previous answer on
	// edits) instead of running the exact solver alone.
	ModePortfolio = service.ModePortfolio
)

// APIError is a non-retryable HTTP error from the daemon (bad spec,
// unknown job, ...).
type APIError struct {
	StatusCode int
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("partitad: HTTP %d: %s", e.StatusCode, e.Message)
}

// ErrRetriesExhausted wraps the final failure after every allowed
// attempt was spent on retryable errors.
var ErrRetriesExhausted = errors.New("client: retries exhausted")

// ErrRetryBudgetExhausted wraps the final failure when the elapsed-time
// retry budget (WithRetryBudget) ran out before the attempt count did.
// It always wraps the last HTTP or network error, so callers see *why*
// the budget was spent, not just that it was.
var ErrRetryBudgetExhausted = errors.New("client: retry budget exhausted")

// Client talks to one partitad — or, with NewMulti, to a cluster of
// them with automatic endpoint failover. The zero value is not usable;
// build with New or NewMulti. Safe for concurrent use.
type Client struct {
	bases      []string
	hc         *http.Client
	maxRetries int
	backoff    time.Duration
	backoffCap time.Duration
	budget     time.Duration
	userAgent  string

	mu  sync.Mutex
	cur int // index into bases of the currently preferred endpoint
	rng *rand.Rand
	// sc is the timeout-less client SSE streams use (see streamClient).
	sc *http.Client
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (default: 35s
// timeout, which must exceed the server's 30s long-poll cap).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithMaxRetries bounds retry attempts after the first try (default 4).
func WithMaxRetries(n int) Option { return func(c *Client) { c.maxRetries = n } }

// WithBackoff sets the exponential backoff base and cap (defaults
// 100ms, 5s). Each retryable failure waits base·2^attempt, jittered to
// [50%, 100%] of that, never exceeding cap; a server Retry-After
// overrides the computed wait when longer.
func WithBackoff(base, cap time.Duration) Option {
	return func(c *Client) { c.backoff, c.backoffCap = base, cap }
}

// WithJitterSeed makes the backoff jitter deterministic (tests).
func WithJitterSeed(seed int64) Option {
	return func(c *Client) { c.rng = rand.New(rand.NewSource(seed)) }
}

// WithUserAgent sets the User-Agent header.
func WithUserAgent(ua string) Option { return func(c *Client) { c.userAgent = ua } }

// WithRetryBudget caps the total elapsed time one call may spend across
// its retries, including server-directed Retry-After waits — without a
// budget, a daemon answering every attempt with 429+Retry-After could
// stretch "4 retries" arbitrarily long. 0 (the default) disables the
// cap; the attempt count still applies either way.
func WithRetryBudget(d time.Duration) Option { return func(c *Client) { c.budget = d } }

// New builds a Client for the daemon at base (e.g.
// "http://127.0.0.1:8080").
func New(base string, opts ...Option) *Client {
	c, err := NewMulti([]string{base}, opts...)
	if err != nil {
		panic(err) // unreachable: one base is always a valid list
	}
	return c
}

// NewMulti builds a Client over several equivalent daemons (a partitad
// cluster). Requests go to one preferred endpoint; when it fails with a
// network error or a 5xx, the client rotates to the next and the retry
// — safe, because jobs are content-addressed — lands there. 429
// back-pressure does NOT rotate: it is the cluster telling the caller
// to slow down, and another node would answer the same.
func NewMulti(bases []string, opts ...Option) (*Client, error) {
	if len(bases) == 0 {
		return nil, errors.New("client: empty endpoint list")
	}
	c := &Client{
		bases:      make([]string, len(bases)),
		hc:         &http.Client{Timeout: 35 * time.Second},
		maxRetries: 4,
		backoff:    100 * time.Millisecond,
		backoffCap: 5 * time.Second,
		userAgent:  "partita-client/1",
	}
	for i, b := range bases {
		b = strings.TrimRight(strings.TrimSpace(b), "/")
		if b == "" {
			return nil, fmt.Errorf("client: empty endpoint at index %d", i)
		}
		c.bases[i] = b
	}
	for _, o := range opts {
		o(c)
	}
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return c, nil
}

// Endpoints returns the configured endpoint list.
func (c *Client) Endpoints() []string { return append([]string(nil), c.bases...) }

// endpoint returns the currently preferred base and its index.
func (c *Client) endpoint() (string, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bases[c.cur], c.cur
}

// rotate moves preference past the endpoint at idx — unless another
// caller already did, so concurrent failures advance the cursor once.
func (c *Client) rotate(idx int) {
	if len(c.bases) < 2 {
		return
	}
	c.mu.Lock()
	if c.cur == idx {
		c.cur = (c.cur + 1) % len(c.bases)
	}
	c.mu.Unlock()
}

// Submit submits one job, retrying through queue-full (429), drain
// (503), transient 5xx, and network errors. The returned view may
// already be terminal (cache hit).
func (c *Client) Submit(ctx context.Context, spec JobSpec) (*JobView, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("client: marshal spec: %w", err)
	}
	return c.doJSON(ctx, http.MethodPost, "/v1/jobs", body)
}

// Job fetches one job's current snapshot.
func (c *Client) Job(ctx context.Context, id string) (*JobView, error) {
	return c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil)
}

// Wait blocks until the job reaches a terminal state, long-polling the
// daemon (?wait=) and falling back to plain polling across restarts.
// It returns the terminal view, or the context's error.
func (c *Client) Wait(ctx context.Context, id string) (*JobView, error) {
	const pollWait = 10 * time.Second
	for {
		v, err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"?wait="+pollWait.String(), nil)
		if err != nil {
			return nil, err
		}
		if v.Status == StatusDone || v.Status == StatusFailed {
			return v, nil
		}
		// Not done: either the long-poll elapsed or the daemon is
		// draining/restarting. A short jittered pause avoids hammering a
		// daemon that answers immediately (e.g. mid-drain).
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(c.jitter(200 * time.Millisecond)):
		}
	}
}

// Run submits the job and waits for its terminal state: the one-call
// happy path. If a daemon crashes mid-solve, Wait rides through the
// restart — a journaled daemon re-enqueues the job; a journal-less (or
// killed) daemon forgets it, in which case Run resubmits (idempotent by
// content address) and keeps waiting. With a multi-endpoint client the
// resubmission lands on the next live node, which is exactly how a
// caller fails a job over off a dead cluster member; a few such hops
// are allowed before giving up.
func (c *Client) Run(ctx context.Context, spec JobSpec) (*JobView, error) {
	const maxResubmits = 3
	v, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	for resubmit := 0; ; resubmit++ {
		if v.Status == StatusDone || v.Status == StatusFailed {
			return v, nil
		}
		final, err := c.Wait(ctx, v.ID)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
			return final, err
		}
		// Whoever is answering polls no longer knows the job: the node
		// that held it died or restarted without a journal.
		if resubmit >= maxResubmits {
			return nil, fmt.Errorf("client: job lost %d times (last: %w)", resubmit+1, err)
		}
		v, err = c.Submit(ctx, spec)
		if err != nil {
			return nil, err
		}
	}
}

// Edit posts interactive edits against a finished select job
// (POST /v1/jobs/{id}/edits) and returns the derived portfolio job's
// view — possibly already terminal when the identical edit was solved
// before (the derived spec is content-addressed like any submission,
// so retrying an edit is always safe).
func (c *Client) Edit(ctx context.Context, jobID string, req EditRequest) (*JobView, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: marshal edit request: %w", err)
	}
	return c.doJSON(ctx, http.MethodPost, "/v1/jobs/"+url.PathEscape(jobID)+"/edits", body)
}

// EditAndWait posts the edit and waits for the derived job's terminal
// state.
func (c *Client) EditAndWait(ctx context.Context, jobID string, req EditRequest) (*JobView, error) {
	v, err := c.Edit(ctx, jobID, req)
	if err != nil {
		return nil, err
	}
	if v.Status == StatusDone || v.Status == StatusFailed {
		return v, nil
	}
	return c.Wait(ctx, v.ID)
}

// RunPortfolio is Run with the spec forced into portfolio mode: the
// daemon races its engines and the result carries per-engine
// attribution (Selection.Portfolio).
func (c *Client) RunPortfolio(ctx context.Context, spec JobSpec) (*JobView, error) {
	spec.Mode = ModePortfolio
	return c.Run(ctx, spec)
}

// List fetches every tracked job.
func (c *Client) List(ctx context.Context) ([]JobView, error) {
	var out struct {
		Jobs []JobView `json:"jobs"`
	}
	body, err := c.do(ctx, http.MethodGet, "/v1/jobs", nil)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("client: decode list: %w", err)
	}
	return out.Jobs, nil
}

// Ready reports whether the daemon is ready for traffic (journal
// replayed, not draining). It does not retry: readiness is a
// point-in-time probe.
func (c *Client) Ready(ctx context.Context) error {
	base, _ := c.endpoint()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return err
	}
	req.Header.Set("User-Agent", c.userAgent)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: not ready (HTTP %d)", resp.StatusCode)
	}
	return nil
}

// doJSON runs do and decodes a JobView.
func (c *Client) doJSON(ctx context.Context, method, path string, body []byte) (*JobView, error) {
	raw, err := c.do(ctx, method, path, body)
	if err != nil {
		return nil, err
	}
	var v JobView
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, fmt.Errorf("client: decode response: %w", err)
	}
	return &v, nil
}

// do performs one request with the retry policy — bounded attempts
// inside a bounded elapsed-time budget, with endpoint failover — and
// returns the response body.
func (c *Client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	start := time.Now()
	var lastErr error
	for attempt := 0; ; attempt++ {
		base, idx := c.endpoint()
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
		if err != nil {
			return nil, err
		}
		req.Header.Set("User-Agent", c.userAgent)
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.hc.Do(req)
		var retryAfter time.Duration
		nodeDown := false
		if err == nil {
			raw, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case rerr != nil:
				err = rerr
				nodeDown = true
			case resp.StatusCode < 300:
				return raw, nil
			case retryableStatus(resp.StatusCode):
				retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
				err = &APIError{StatusCode: resp.StatusCode, Message: errMessage(raw)}
				// 5xx means this node is sick; 429 means the whole
				// cluster is asking for restraint.
				nodeDown = resp.StatusCode >= 500
			default:
				return nil, &APIError{StatusCode: resp.StatusCode, Message: errMessage(raw)}
			}
		} else {
			nodeDown = true
		}
		lastErr = err
		if nodeDown {
			c.rotate(idx)
		}
		if attempt >= c.maxRetries {
			return nil, fmt.Errorf("%w after %d attempts: %s %s: %w",
				ErrRetriesExhausted, attempt+1, method, path, lastErr)
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		wait := c.backoffFor(attempt)
		if retryAfter > wait {
			wait = retryAfter
		}
		if c.budget > 0 && time.Since(start)+wait > c.budget {
			return nil, fmt.Errorf("%w (%s) after %d attempts: %s %s: %w",
				ErrRetryBudgetExhausted, c.budget, attempt+1, method, path, lastErr)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(wait):
		}
	}
}

// retryableStatus lists the responses worth retrying: back-pressure,
// drain, and transient upstream failures.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusBadGateway, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// backoffFor computes the jittered exponential wait for an attempt.
// Negative attempts clamp to 0: a caller whose failure budget just
// reset (stream progress, endpoint rotation) waits the base backoff,
// not the cap that `backoff << -1` would otherwise overflow into.
func (c *Client) backoffFor(attempt int) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	d := c.backoff << uint(attempt)
	if d > c.backoffCap || d <= 0 {
		d = c.backoffCap
	}
	return c.jitter(d)
}

// jitter maps d to a uniformly random duration in [d/2, d].
func (c *Client) jitter(d time.Duration) time.Duration {
	c.mu.Lock()
	f := 0.5 + 0.5*c.rng.Float64()
	c.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// parseRetryAfter handles the delta-seconds form of Retry-After (the
// only form partitad emits).
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}

// errMessage extracts the {"error": "..."} payload, falling back to the
// raw body.
func errMessage(raw []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(raw))
}
