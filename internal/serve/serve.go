package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/tensor"
)

// Config tunes the serving stack. The zero value of each field selects the
// default noted on it.
type Config struct {
	// PoolSize caps the session pool. Each session is one execution lane
	// with its own arena. The default (0) is max(1, GOMAXPROCS / the
	// module's kernel threads), so sessions × threads fills the process's
	// cores: a module compiled with Threads=1 gets one serial session per
	// core. Sessions are created lazily, so a bound costs nothing until
	// load needs it.
	PoolSize int
	// QueueDepth bounds how many requests may wait at once for a session
	// while every session is busy; the next one answers 429 (default 32).
	QueueDepth int
	// RequestTimeout is the per-request deadline budget applied when the
	// client sends no X-Request-Timeout header (default 30s; NoTimeout
	// disables the server-side budget). The budget covers the request's
	// whole lifetime — queueing and execution — and expiry answers 504.
	RequestTimeout time.Duration
	// MaxBodyBytes caps infer request bodies. The default (0) derives the
	// cap from the model's input signature (~32 bytes of JSON per float32
	// plus fixed headroom); oversized bodies answer 413.
	MaxBodyBytes int64
	// DrainTimeout bounds how long Close/Unload lets admitted requests
	// finish before cancelling them (default 5s; negative drops the grace
	// period entirely).
	DrainTimeout time.Duration
	// BreakerThreshold is how many execution failures inside
	// BreakerWindow trip the model's circuit breaker into the degraded
	// state (default 3; negative disables the breaker). A degraded model
	// answers 503 until a half-open probe succeeds.
	BreakerThreshold int
	// BreakerWindow is the sliding window the threshold counts failures in
	// (default 10s).
	BreakerWindow time.Duration
	// BreakerCooldown is how long a tripped breaker refuses traffic before
	// admitting a half-open probe (default 5s).
	BreakerCooldown time.Duration
	// AccessLog, when set, receives one JSON line per inference request
	// (model, status code, latency, execution id, deadline budget, client
	// id) — including rejected requests (4xx/429/504). The writer is serialized
	// behind a mutex; hand it os.Stdout or a buffered file writer.
	AccessLog io.Writer
}

// NoTimeout disables the server-side default request deadline; requests then
// carry a budget only when the client sets X-Request-Timeout.
const NoTimeout = time.Duration(-1)

// withDefaults resolves zero fields; it does not validate (New does), and it
// leaves PoolSize 0 ("auto") for pool construction to resolve against the
// module's thread count.
func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 32
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.RequestTimeout < 0 {
		c.RequestTimeout = 0
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.DrainTimeout < 0 {
		c.DrainTimeout = 0
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerWindow == 0 {
		c.BreakerWindow = 10 * time.Second
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	return c
}

// validate rejects negative knobs (zero means "default", negatives are
// always caller bugs).
func (c Config) validate() error {
	if c.PoolSize < 0 {
		return fmt.Errorf("serve: pool size must be positive, got %d", c.PoolSize)
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("serve: queue depth must be positive, got %d", c.QueueDepth)
	}
	if c.MaxBodyBytes < 0 {
		return fmt.Errorf("serve: max body bytes must be positive, got %d", c.MaxBodyBytes)
	}
	return nil
}

// Server exposes a model registry over the kserve-v2-style JSON protocol:
//
//	GET  /v2                                     server metadata
//	GET  /v2/health/live                         liveness
//	GET  /v2/health/ready                        readiness (not closed)
//	GET  /v2/models/<name>                       model metadata
//	GET  /v2/models/<name>/ready                 per-model readiness
//	POST /v2/models/<name>/infer                 inference
//	GET  /v2/models/<name>/stats                 per-model pool + admission counters (extension)
//	GET  /v2/stats                               the same counters (extension)
//	GET  /v2/repository/index                    repository index
//	POST /v2/repository/index                    repository index (kserve form)
//	POST /v2/repository/models/<name>/load       bring a model up
//	POST /v2/repository/models/<name>/unload     take a model down
//	GET  /metrics                                Prometheus metrics
//
// Each admitted request runs on one of the addressed model's pooled
// sessions, on its own handler goroutine; the Handler is safe for arbitrary concurrent use, including concurrently with
// repository load/unload transitions.
//
// A server is either single-model (New: one caller-owned compiled module,
// /v2/stats keeps its historical single-object shape) or repository-backed
// (NewRepository: N models loaded on demand from artifact bundles under one
// arena budget).
type Server struct {
	reg     *Registry
	primary string // single-model mode: the addressed model; "" in repository mode
	repo    bool
	mux     *http.ServeMux
	closed  atomic.Bool

	// timeout is the default per-request deadline budget (0 = none) and
	// maxBody the explicit body cap (0 = derive from the input signature);
	// both resolved from the server's default Config at construction.
	timeout time.Duration
	maxBody int64

	// accessLog is the structured request log (nil disables).
	accessLog *accessLogger
}

// New builds a single-model server over a compiled module. The model name is
// the path component clients address (conventionally the graph name). The
// caller keeps ownership of the module; Close never closes it.
func New(mod *core.Module, model string, cfg Config) (*Server, error) {
	if model == "" {
		model = mod.Graph.Name
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	reg, err := NewRegistry(nil, RegistryConfig{Defaults: cfg})
	if err != nil {
		return nil, err
	}
	if err := reg.AddStatic(model, mod, cfg); err != nil {
		return nil, err
	}
	rc := cfg.withDefaults()
	s := &Server{reg: reg, primary: model, timeout: rc.RequestTimeout, maxBody: rc.MaxBodyBytes}
	if rc.AccessLog != nil {
		s.accessLog = newAccessLogger(rc.AccessLog)
	}
	s.routes()
	return s, nil
}

// NewRepository builds a server over a model registry — typically one backed
// by a DirSource of artifact bundles. The server takes ownership of the
// registry: Close drains and closes it.
func NewRepository(reg *Registry) (*Server, error) {
	if reg == nil {
		return nil, errors.New("serve: nil registry")
	}
	rc := reg.cfg.Defaults.withDefaults()
	s := &Server{reg: reg, repo: true, timeout: rc.RequestTimeout, maxBody: rc.MaxBodyBytes}
	if rc.AccessLog != nil {
		s.accessLog = newAccessLogger(rc.AccessLog)
	}
	s.routes()
	return s, nil
}

// Handler returns the HTTP handler. Valid until Close.
func (s *Server) Handler() http.Handler { return s.mux }

// Model returns the served model name (single-model mode; empty for
// repository servers).
func (s *Server) Model() string { return s.primary }

// Registry returns the underlying model registry.
func (s *Server) Registry() *Registry { return s.reg }

// Stats snapshots the primary model's pool and admission counters
// (single-model mode; zero for repository servers — use Registry().Stats()).
func (s *Server) Stats() ModelStats {
	if s.primary == "" {
		return ModelStats{}
	}
	st, err := s.reg.ModelStatsFor(s.primary)
	if err != nil {
		return ModelStats{Model: s.primary}
	}
	return st
}

// Drain flips the server into the draining health state: readiness goes
// false (so load balancers stop routing here), new inference requests are
// refused with 503, and in-flight requests run to completion. The graceful
// shutdown sequence is Drain, then http.Server.Shutdown (which waits for
// in-flight handlers), then Close.
func (s *Server) Drain() { s.reg.Drain() }

// Close drains every loaded model's admitted requests (bounded by each
// model's DrainTimeout), closes the registry and marks the server unready. Modules
// registered via New remain open (the caller owns them); repository-loaded
// modules are closed.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.reg.Close()
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /v2", s.handleServerMetadata)
	s.mux.HandleFunc("GET /v2/health/live", s.handleLive)
	s.mux.HandleFunc("GET /v2/health/ready", s.handleReady)
	s.mux.HandleFunc("GET /v2/models/{model}", s.handleModelMetadata)
	s.mux.HandleFunc("GET /v2/models/{model}/ready", s.handleModelReady)
	s.mux.HandleFunc("POST /v2/models/{model}/infer", s.handleInfer)
	s.mux.HandleFunc("GET /v2/models/{model}/stats", s.handleModelStats)
	s.mux.HandleFunc("GET /v2/stats", s.handleStats)
	s.mux.HandleFunc("GET /v2/repository/index", s.handleRepositoryIndex)
	s.mux.HandleFunc("POST /v2/repository/index", s.handleRepositoryIndex)
	s.mux.HandleFunc("POST /v2/repository/models/{model}/load", s.handleRepositoryLoad)
	s.mux.HandleFunc("POST /v2/repository/models/{model}/unload", s.handleRepositoryUnload)
	s.mux.Handle("GET /metrics", s.reg.Metrics().Handler())
}

// Wire format (the kserve v2 inference protocol's JSON shapes, restricted to
// the FP32 tensors this engine trades in).

// InferTensor is one named tensor on the wire, row-major data.
type InferTensor struct {
	Name     string    `json:"name"`
	Shape    []int     `json:"shape"`
	Datatype string    `json:"datatype"`
	Data     []float32 `json:"data"`
}

// InferRequest is the POST /v2/models/<name>/infer body.
type InferRequest struct {
	ID     string        `json:"id,omitempty"`
	Inputs []InferTensor `json:"inputs"`
}

// InferResponse is the inference reply.
type InferResponse struct {
	ModelName string        `json:"model_name"`
	ID        string        `json:"id,omitempty"`
	Outputs   []InferTensor `json:"outputs"`
}

type modelMetadata struct {
	Name     string           `json:"name"`
	Platform string           `json:"platform"`
	Inputs   []tensorMetadata `json:"inputs"`
	Outputs  []tensorMetadata `json:"outputs"`
}

type tensorMetadata struct {
	Name     string `json:"name"`
	Datatype string `json:"datatype"`
	Shape    []int  `json:"shape"`
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// registryStatus maps the registry's typed errors onto HTTP statuses: a name
// the repository has never heard of is 404, a known-but-unloaded model is
// 503 (the kserve distinction clients retry on), a model mid-transition is
// 409, and budget exhaustion is 507.
func registryStatus(err error) int {
	switch {
	case errors.Is(err, ErrModelNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrModelNotReady), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrModelBusy):
		return http.StatusConflict
	case errors.Is(err, ErrArenaBudget):
		return http.StatusInsufficientStorage
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"live": true})
}

// handleReady reports the server's health state machine: "ready" (200),
// "degraded" (200 — healthy co-hosted models still serve, but at least one
// breaker is open so the payload flags it), "draining" and "closed" (503 —
// stop routing traffic here).
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	state := s.reg.Health()
	if s.closed.Load() {
		state = HealthClosed
	}
	status := http.StatusOK
	if state == HealthDraining || state == HealthClosed {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{"ready": status == http.StatusOK, "state": string(state)})
}

func (s *Server) handleServerMetadata(w http.ResponseWriter, r *http.Request) {
	idx := s.reg.Index()
	names := make([]string, 0, len(idx))
	for _, m := range idx {
		names = append(names, m.Name)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name":       "neocpu-serve",
		"extensions": []string{"stats", "repository"},
		"models":     names,
	})
}

// resolveModel looks up the addressed model, writing the kserve-style error
// (404 unknown vs 503 known-but-unloaded) on failure.
func (s *Server) resolveModel(w http.ResponseWriter, r *http.Request) (string, *core.Module, bool) {
	name := r.PathValue("model")
	mod, err := s.reg.Module(name)
	if err != nil {
		writeError(w, registryStatus(err), "%v", err)
		return name, nil, false
	}
	return name, mod, true
}

// handleModelReady reports one model's readiness, distinguishing degraded
// (loaded but circuit-broken, 503 with state "degraded") from not loaded.
func (s *Server) handleModelReady(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("model")
	state, err := s.reg.StateOf(name)
	switch {
	case errors.Is(err, ErrModelNotFound):
		writeError(w, http.StatusNotFound, "%v", err)
	case err == nil && state == StateReady:
		writeJSON(w, http.StatusOK, map[string]any{"ready": true, "state": string(state)})
	default:
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "state": string(state)})
	}
}

func (s *Server) handleModelMetadata(w http.ResponseWriter, r *http.Request) {
	name, mod, ok := s.resolveModel(w, r)
	if !ok {
		return
	}
	md := modelMetadata{
		Name:     name,
		Platform: "neocpu-go",
		Inputs: []tensorMetadata{{
			Name:     "input",
			Datatype: "FP32",
			Shape:    mod.Graph.Input.OutShape.Dims,
		}},
	}
	for i, o := range mod.Graph.Outputs {
		md.Outputs = append(md.Outputs, tensorMetadata{
			Name:     fmt.Sprintf("output_%d", i),
			Datatype: "FP32",
			Shape:    o.OutShape.Dims,
		})
	}
	writeJSON(w, http.StatusOK, md)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// Single-model servers keep the historical single-object shape;
	// repository servers report every model.
	if !s.repo {
		writeJSON(w, http.StatusOK, s.Stats())
		return
	}
	writeJSON(w, http.StatusOK, s.reg.Stats())
}

func (s *Server) handleModelStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("model")
	st, err := s.reg.ModelStatsFor(name)
	if err != nil {
		writeError(w, registryStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleRepositoryIndex(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Index())
}

func (s *Server) handleRepositoryLoad(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("model")
	if err := s.reg.Load(name); err != nil {
		writeError(w, registryStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"model": name, "state": string(StateReady)})
}

func (s *Server) handleRepositoryUnload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("model")
	if err := s.reg.Unload(name); err != nil {
		writeError(w, registryStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"model": name, "state": string(StateUnloaded)})
}

// requestDeadline resolves one request's deadline budget: the
// X-Request-Timeout header (a Go duration like "50ms", or a bare integer in
// milliseconds) overrides the server default. Zero means no budget.
func (s *Server) requestDeadline(r *http.Request) (time.Duration, error) {
	h := r.Header.Get("X-Request-Timeout")
	if h == "" {
		return s.timeout, nil
	}
	d, err := time.ParseDuration(h)
	if err != nil {
		ms, merr := strconv.ParseInt(h, 10, 64)
		if merr != nil {
			return 0, fmt.Errorf("invalid X-Request-Timeout %q: want a duration (\"50ms\") or integer milliseconds", h)
		}
		d = time.Duration(ms) * time.Millisecond
	}
	if d <= 0 {
		return 0, fmt.Errorf("invalid X-Request-Timeout %q: must be positive", h)
	}
	return d, nil
}

// handleInfer wraps the inference path with per-request observability: the
// terminal status and whole-handler latency feed the model's metric set (or
// the unknown-model counter — request metrics never create label series from
// client-supplied names), and the access log gets one line per request,
// rejected ones included.
func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("model")
	start := time.Now()
	code, execID, budget, reqID := s.serveInfer(w, r, name)
	elapsed := time.Since(start)
	if mm := s.reg.metrics.Lookup(name); mm != nil {
		mm.ObserveRequest(code, elapsed)
	} else {
		s.reg.metrics.IncUnknown()
	}
	s.accessLog.log(name, code, elapsed, execID, budget, reqID)
}

// serveInfer runs one inference request end to end and reports its terminal
// HTTP status, its execution ID (0 if it never ran), its resolved deadline
// budget, and the client-supplied request id.
func (s *Server) serveInfer(w http.ResponseWriter, r *http.Request, name string) (code int, execID uint64, budget time.Duration, reqID string) {
	mod, err := s.reg.Module(name)
	if err != nil {
		st := registryStatus(err)
		writeError(w, st, "%v", err)
		return st, 0, 0, ""
	}
	// Bound request bodies: the input tensor is fixed-size, and JSON spends
	// at most ~32 bytes per float32; headroom covers ids and whitespace. An
	// explicit MaxBodyBytes overrides the derived cap, which counts the
	// whole body, trailing bytes included.
	volume := mod.Graph.Input.OutShape.Volume()
	maxBody := s.maxBody
	if maxBody == 0 {
		maxBody = int64(32*volume + 64*1024)
	}
	body, err := readBody(http.MaxBytesReader(w, r.Body, maxBody), r.ContentLength, maxBody)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return http.StatusRequestEntityTooLarge, 0, 0, ""
		}
		writeError(w, http.StatusBadRequest, "reading request body: %v", err)
		return http.StatusBadRequest, 0, 0, ""
	}
	req, err := decodeInfer(body, volume)
	if err != nil {
		writeError(w, http.StatusBadRequest, "malformed request body: %v", err)
		return http.StatusBadRequest, 0, 0, ""
	}
	reqID = req.ID
	in, err := requestTensor(mod, &req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return http.StatusBadRequest, 0, 0, reqID
	}

	// The deadline budget covers the request's whole remaining lifetime:
	// admission, waiting for a session and execution all charge against it.
	budget, err = s.requestDeadline(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return http.StatusBadRequest, 0, 0, reqID
	}
	ctx := r.Context()
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, budget, ErrDeadline)
		defer cancel()
	}

	outs, execID, err := s.reg.InferTraced(ctx, name, in)
	if err != nil {
		switch {
		case errors.Is(err, ErrDeadline), errors.Is(err, context.DeadlineExceeded):
			// The budget ran out — at admission (the queue was predicted to
			// outlast it), waiting for a session, or mid-execution.
			code = http.StatusGatewayTimeout
			writeError(w, code, "request deadline exceeded (budget %v): %v", budget, err)
		case errors.Is(err, ErrQueueFull):
			code = http.StatusTooManyRequests
			w.Header().Set("Retry-After", strconv.Itoa(s.reg.RetryAfterSeconds(name)))
			writeError(w, code, "server overloaded: %v", err)
		case errors.Is(err, ErrModelDegraded):
			code = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", strconv.Itoa(s.reg.RetryAfterSeconds(name)))
			writeError(w, code, "%v", err)
		case errors.Is(err, ErrClosed), errors.Is(err, ErrModelNotReady):
			// The model was unloaded (or evicted) while the request was in
			// flight, or the server is draining; clients retry elsewhere.
			code = http.StatusServiceUnavailable
			writeError(w, code, "%v", err)
		case errors.Is(err, ErrModelNotFound):
			code = http.StatusNotFound
			writeError(w, code, "%v", err)
		case r.Context().Err() != nil:
			// The client is gone; the status is a formality.
			code = http.StatusRequestTimeout
			writeError(w, code, "request cancelled: %v", err)
		default:
			// Includes recovered execution panics (*core.ExecPanicError):
			// this request's run failed, the session was quarantined, and
			// the model keeps serving (until its breaker says otherwise).
			code = http.StatusInternalServerError
			writeError(w, code, "inference failed: %v", err)
		}
		return code, execID, budget, reqID
	}

	resp := InferResponse{ModelName: name, ID: req.ID}
	for i, o := range outs {
		resp.Outputs = append(resp.Outputs, InferTensor{
			Name:     fmt.Sprintf("output_%d", i),
			Shape:    o.Shape,
			Datatype: "FP32",
			Data:     o.Data,
		})
	}
	// Encode before writing the status: output tensors can legitimately
	// carry non-finite values (saturated activations), which JSON cannot
	// represent — that must surface as a 500, not a 200 with a dead body.
	payload, err := json.Marshal(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return http.StatusInternalServerError, execID, budget, reqID
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(payload)
	return http.StatusOK, execID, budget, reqID
}

// requestTensor validates the request against the compiled input geometry
// and builds the NCHW input tensor.
func requestTensor(mod *core.Module, req *InferRequest) (*tensor.Tensor, error) {
	if len(req.Inputs) != 1 {
		return nil, fmt.Errorf("expected exactly 1 input tensor, got %d", len(req.Inputs))
	}
	in := req.Inputs[0]
	if in.Datatype != "" && in.Datatype != "FP32" {
		return nil, fmt.Errorf("unsupported datatype %q (only FP32)", in.Datatype)
	}
	want := mod.Graph.Input.OutShape.Dims
	if len(in.Shape) != len(want) {
		return nil, fmt.Errorf("input shape %v, want %v", in.Shape, want)
	}
	n := 1
	for i, d := range in.Shape {
		if d != want[i] {
			return nil, fmt.Errorf("input shape %v, want %v", in.Shape, want)
		}
		n *= d
	}
	if len(in.Data) != n {
		return nil, fmt.Errorf("input data has %d elements, shape %v needs %d", len(in.Data), in.Shape, n)
	}
	return tensor.FromData(tensor.NCHW(), in.Data, want...), nil
}
