package neocpu

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/serve"
)

// Server exposes a compiled Engine over HTTP with pooled sessions,
// speaking a kserve-v2-style JSON protocol:
//
//	GET  /v2/health/live, /v2/health/ready     probes
//	GET  /v2/models/<name>[/ready]             metadata, per-model readiness
//	POST /v2/models/<name>/infer               inference
//	GET  /v2/stats                             pool + admission counters
//	GET  /metrics                              Prometheus metrics
//
// Each request runs at once on an idle session of a bounded pool of
// arena-reusing sessions, on its own handler goroutine. While every session
// is busy, up to WithQueueDepth requests wait for one, first come first
// served; beyond that a request answers 429. Construct with NewServer and
// mount Handler on an HTTP server.
type Server struct {
	inner *serve.Server
}

// ServerStats reports the serving counters: pool occupancy and the model's
// execution counters (Pool.Items counts completed inferences), plus
// admission rejections, deadline sheds and recovered panics. The counters
// are the same atomics GET /metrics renders.
type ServerStats = serve.ModelStats

// ServeOption configures NewServer.
type ServeOption func(*serveConfig)

type serveConfig struct {
	cfg serve.Config
	err error
}

// WithPoolSize caps the session pool. Sessions are created lazily up to the
// cap and recycled across requests; each is one execution lane with its own
// preallocated arena. When the option is omitted the cap is GOMAXPROCS
// divided by the engine's threads (at least 1), so sessions × threads fills
// the cores: an engine compiled WithThreads(1), which runs each session
// serially with no kernel pool, gets one session per core.
func WithPoolSize(n int) ServeOption {
	return func(c *serveConfig) {
		if n <= 0 {
			c.err = fmt.Errorf("%w: pool size %d (must be >= 1)", ErrBadOption, n)
			return
		}
		c.cfg.PoolSize = n
	}
}

// WithQueueDepth bounds how many requests may wait for a session while
// every session is busy (default 32). Requests beyond it are rejected with
// 429 instead of queueing unbounded work.
func WithQueueDepth(n int) ServeOption {
	return func(c *serveConfig) {
		if n <= 0 {
			c.err = fmt.Errorf("%w: queue depth %d (must be >= 1)", ErrBadOption, n)
			return
		}
		c.cfg.QueueDepth = n
	}
}

// WithRequestTimeout sets the default per-request deadline budget applied
// when the client sends no X-Request-Timeout header (default 30s; 0 disables
// the server-side budget). The budget covers the request's whole lifetime —
// admission, waiting for a session and execution — and expiry answers 504:
// a request the queue is predicted to outlast is refused immediately rather
// than admitted to time out.
func WithRequestTimeout(d time.Duration) ServeOption {
	return func(c *serveConfig) {
		if d < 0 {
			c.err = fmt.Errorf("%w: negative request timeout %v", ErrBadOption, d)
			return
		}
		if d == 0 {
			c.cfg.RequestTimeout = serve.NoTimeout
			return
		}
		c.cfg.RequestTimeout = d
	}
}

// WithDrainTimeout bounds how long Close lets admitted requests finish
// before cancelling them (default 5s; 0 drops the grace period).
func WithDrainTimeout(d time.Duration) ServeOption {
	return func(c *serveConfig) {
		if d < 0 {
			c.err = fmt.Errorf("%w: negative drain timeout %v", ErrBadOption, d)
			return
		}
		if d == 0 {
			d = -1 // serve.Config: negative means "no grace period"
		}
		c.cfg.DrainTimeout = d
	}
}

// WithMaxBodyBytes caps infer request bodies; oversized bodies answer 413.
// When the option is omitted the cap derives from the model's input
// signature (~32 bytes of JSON per float32 plus fixed headroom).
func WithMaxBodyBytes(n int64) ServeOption {
	return func(c *serveConfig) {
		if n <= 0 {
			c.err = fmt.Errorf("%w: max body bytes %d (must be >= 1)", ErrBadOption, n)
			return
		}
		c.cfg.MaxBodyBytes = n
	}
}

// WithAccessLog streams one JSON line per inference request to w — model,
// status code, latency, execution id, deadline budget, client request id —
// including rejected requests (413/429/504). Writes are serialized
// behind a mutex; hand it os.Stdout or a buffered writer the caller flushes.
func WithAccessLog(w io.Writer) ServeOption {
	return func(c *serveConfig) {
		if w == nil {
			c.err = fmt.Errorf("%w: nil access log writer", ErrBadOption)
			return
		}
		c.cfg.AccessLog = w
	}
}

// NewServer builds a serving stack over a compiled engine. The model name
// is the path component clients address; "" uses the compiled graph's name.
// Close the server when done (the engine stays open — the caller owns it).
func NewServer(e *Engine, model string, opts ...ServeOption) (*Server, error) {
	if e == nil {
		return nil, fmt.Errorf("%w: nil engine", ErrBadOption)
	}
	if e.PredictOnly() {
		return nil, ErrPredictOnly
	}
	var c serveConfig
	for _, o := range opts {
		o(&c)
	}
	if c.err != nil {
		return nil, c.err
	}
	inner, err := serve.New(e.mod, model, c.cfg)
	if err != nil {
		return nil, err
	}
	return &Server{inner: inner}, nil
}

// Handler returns the HTTP handler, for embedding into an existing mux or
// an httptest server.
func (s *Server) Handler() http.Handler { return s.inner.Handler() }

// Model returns the served model name.
func (s *Server) Model() string { return s.inner.Model() }

// Stats snapshots the pool and admission counters. Safe to call
// concurrently with request handling.
func (s *Server) Stats() ServerStats { return s.inner.Stats() }

// Drain flips the server into the draining health state: readiness goes
// false, new inference requests are refused with 503, in-flight requests run
// to completion. Call it ahead of Close for a graceful handoff.
func (s *Server) Drain() { s.inner.Drain() }

// Close drains in-flight requests (bounded by WithDrainTimeout) and marks
// the server unready. Idempotent.
func (s *Server) Close() { s.inner.Close() }
