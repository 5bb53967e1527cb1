package service

import (
	"context"
	"sync"
	"time"
)

// BeginDrain flips the server into draining mode without waiting for
// anything: new submissions are rejected, the readiness probe goes 503,
// in-flight solves see an expired deadline, and — crucially for
// graceful shutdown behind a load balancer — every idle long-poll
// request parked on the drain channel wakes immediately. Call it before
// http.Server.Shutdown; otherwise a SIGTERM arriving while the queue is
// empty leaves idle pollers holding connections open until their wait
// expires, and the HTTP shutdown stalls for the full drain deadline
// with no work left to do. Shutdown calls BeginDrain itself; calling it
// twice is harmless.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.drainOnce.Do(func() { close(s.drain) })
}

// BeginLeave announces the node's departure from the cluster ring ahead
// of a drain: /readyz flips to 503 with reason "leaving-ring" so peer
// health probes and load balancers steer traffic away before the drain
// starts rejecting it. Single-node shutdowns never call it. Calling it
// twice is harmless.
func (s *Server) BeginLeave() { s.leaving.Store(true) }

// drainContext presents service drain as a *deadline expiry* rather
// than a cancellation. The distinction matters because the whole solver
// stack (budget.Check → ilp → selector) treats context.Canceled as
// "abort without an answer" but context.DeadlineExceeded as "stop and
// hand back the best incumbent". Graceful shutdown wants the latter:
// when the drain channel closes, every in-flight solve sees an expired
// deadline and returns its anytime result instead of an error.
type drainContext struct {
	parent context.Context
	done   chan struct{}
	mu     sync.Mutex
	err    error
}

// withDrain derives a context from parent that additionally expires —
// with context.DeadlineExceeded — when drain closes. The returned stop
// function releases the watcher goroutine and must be called when the
// work finishes.
func withDrain(parent context.Context, drain <-chan struct{}) (context.Context, func()) {
	d := &drainContext{parent: parent, done: make(chan struct{})}
	stop := make(chan struct{})
	go func() {
		select {
		case <-drain:
			d.finish(context.DeadlineExceeded)
		case <-parent.Done():
			d.finish(parent.Err())
		case <-stop:
		}
	}()
	var once sync.Once
	return d, func() { once.Do(func() { close(stop) }) }
}

func (d *drainContext) finish(err error) {
	d.mu.Lock()
	if d.err == nil {
		d.err = err
		close(d.done)
	}
	d.mu.Unlock()
}

// Deadline reports the parent's deadline; the drain edge is not
// predictable in advance.
func (d *drainContext) Deadline() (time.Time, bool) { return d.parent.Deadline() }

// Done is closed when the parent finishes or the drain begins.
func (d *drainContext) Done() <-chan struct{} { return d.done }

// Err reports context.DeadlineExceeded after a drain, or the parent's
// error.
func (d *drainContext) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// Value delegates to the parent.
func (d *drainContext) Value(key any) any { return d.parent.Value(key) }
