// Package metrics is the serving tier's observability registry: a
// stdlib-only, lock-cheap collection of counters, histograms and gauges that
// the session pool, admission front, model registry, circuit breaker and
// health machine all feed. It is the one store of every serving counter:
// /metrics renders it in the Prometheus text format, and /v2/stats reads
// the same atomics.
//
// The hot path is allocation-free by construction: every per-model metric
// set is resolved once (at model load, or one RLock'd map lookup per HTTP
// request) into a *Model whose counters are plain atomics and whose
// histograms are fixed bucket arrays — an Observe is a handful of atomic
// adds, never a map insert, never an interface boxing, never a []byte. All
// the formatting work happens at scrape time.
//
// Gauges are not stored at all: each model registers one callback snapshot
// function (queue depth, pool occupancy, arena bytes) that the exposition
// path invokes per scrape, so live values cost the hot path nothing.
//
// Every Model method is nil-receiver-safe, so instrumented components can
// run unmetered (tests, embedded uses) without scattering nil checks.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// DurationBuckets are the histogram bounds (seconds) shared by the request
// latency, queue wait and execution latency families: exponential-ish from
// 100µs to 10s, matching the µs-to-ms regime of CPU CNN inference with
// headroom for saturated queues.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

// trackedCodes are the HTTP statuses the serving stack deliberately answers
// (see docs/SERVING.md's status matrix); anything else lands in the
// codeOther bucket so an unexpected status is still visible.
var trackedCodes = [...]int{200, 400, 404, 408, 409, 413, 429, 500, 503, 504, 507}

const codeOther = len(trackedCodes) // index of the catch-all bucket

func codeIndex(status int) int {
	for i, c := range trackedCodes {
		if c == status {
			return i
		}
	}
	return codeOther
}

// Breaker transition targets, the `state` label of
// neocpu_breaker_transitions_total.
const (
	BreakerOpen     = "open"
	BreakerHalfOpen = "half_open"
	BreakerClosed   = "closed"
)

var breakerStates = [...]string{BreakerOpen, BreakerHalfOpen, BreakerClosed}

func breakerIndex(state string) int {
	for i, s := range breakerStates {
		if s == state {
			return i
		}
	}
	return 0
}

// healthStates is the fixed label domain of neocpu_health_state.
var healthStates = []string{"ready", "degraded", "draining", "closed"}

// Histogram is a fixed-bucket, atomically updated histogram. Observe is
// wait-free apart from the CAS loop folding the sum (contended only under
// simultaneous observes, and even then a couple of retries).
type Histogram struct {
	bounds  []float64       // upper bounds, ascending
	counts  []atomic.Uint64 // len(bounds)+1; last bucket is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, +Inf when past the end
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// HistogramSnapshot is a scrape-time copy of a histogram's state. Buckets
// are cumulative (Prometheus `le` semantics): Buckets[i] counts observations
// <= Bounds[i], and Buckets[len(Bounds)] is the +Inf bucket (== Count).
type HistogramSnapshot struct {
	Bounds  []float64
	Buckets []uint64
	Sum     float64
	Count   uint64
}

// Snapshot copies the histogram's current state with cumulative buckets.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds:  h.bounds,
		Buckets: make([]uint64, len(h.counts)),
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		s.Buckets[i] = cum
	}
	s.Sum = math.Float64frombits(h.sumBits.Load())
	s.Count = h.count.Load()
	return s
}

// Gauges is one model's scrape-time gauge snapshot, produced by the
// callback registered with Model.SetGaugeFunc.
type Gauges struct {
	// QueueDepth is the number of requests waiting for a session.
	QueueDepth int
	// PoolSessions / PoolInUse / PoolMax describe the session pool: created
	// sessions, sessions currently checked out, and the bound.
	PoolSessions int
	PoolInUse    int
	PoolMax      int
	// ArenaBytes is the total preallocated session-arena footprint.
	ArenaBytes int
}

// Counter names one of a model's cumulative serving counters. Each has one
// increment site; Discards and Panics are also exposed on /metrics, the
// others only through /v2/stats.
type Counter int

const (
	// Acquires counts SessionPool.Acquire calls.
	Acquires Counter = iota
	// Waits counts acquires that found the pool exhausted and blocked.
	Waits
	// Discards counts sessions quarantined out of the pool after a panic
	// (neocpu_session_discards_total).
	Discards
	// Rejected counts requests refused because the wait queue was full.
	Rejected
	// Shed counts requests refused or dropped for deadline reasons.
	Shed
	// Panics counts runs that failed with a recovered execution panic
	// (neocpu_exec_panics_total).
	Panics
	// Items counts runs that completed successfully.
	Items
	numCounters
)

// Model is one served model's metric set. All counter and histogram methods
// are safe for concurrent use and allocation-free; all are no-ops on a nil
// receiver. Its counters live as long as the Registry that made it, so they
// survive session discards and model unload/reload.
type Model struct {
	name string

	requests    [len(trackedCodes) + 1]atomic.Uint64
	counts      [numCounters]atomic.Uint64
	transitions [len(breakerStates)]atomic.Uint64

	latency     *Histogram
	queueWait   *Histogram
	execLatency *Histogram

	gauges atomic.Value // func() Gauges; a typed nil func means "cleared"
}

func newModel(name string) *Model {
	return &Model{
		name:        name,
		latency:     newHistogram(DurationBuckets),
		queueWait:   newHistogram(DurationBuckets),
		execLatency: newHistogram(DurationBuckets),
	}
}

// ObserveRequest records one inference request's terminal HTTP status and
// whole-handler latency (decode, queue, execute, encode).
func (m *Model) ObserveRequest(code int, d time.Duration) {
	if m == nil {
		return
	}
	m.requests[codeIndex(code)].Add(1)
	m.latency.Observe(d.Seconds())
}

// ObserveQueueWait records how long one admitted request took from
// admission to holding a session.
func (m *Model) ObserveQueueWait(d time.Duration) {
	if m == nil {
		return
	}
	m.queueWait.Observe(d.Seconds())
}

// ObserveExec records one request's execution latency on its session.
func (m *Model) ObserveExec(d time.Duration) {
	if m == nil {
		return
	}
	m.execLatency.Observe(d.Seconds())
}

// ExecTotals reports the execution histogram's count and sum: how many runs
// executed and the wall-clock they spent on their sessions.
func (m *Model) ExecTotals() (runs uint64, busy time.Duration) {
	if m == nil {
		return 0, 0
	}
	h := m.execLatency
	return h.count.Load(), time.Duration(math.Round(math.Float64frombits(h.sumBits.Load()) * 1e9))
}

// Inc adds one to counter c.
func (m *Model) Inc(c Counter) {
	if m == nil {
		return
	}
	m.counts[c].Add(1)
}

// Count reads counter c.
func (m *Model) Count(c Counter) uint64 {
	if m == nil {
		return 0
	}
	return m.counts[c].Load()
}

// BreakerTransition counts one circuit-breaker state change, labeled by the
// state entered (BreakerOpen, BreakerHalfOpen, BreakerClosed).
func (m *Model) BreakerTransition(state string) {
	if m == nil {
		return
	}
	m.transitions[breakerIndex(state)].Add(1)
}

// SetGaugeFunc installs (or, with nil, clears) the scrape-time gauge
// snapshot callback. The registry installs one per model at load and clears
// it at teardown so a scrape never touches a torn-down pool; a cleared model
// drops out of the gauge families entirely (its counters remain).
func (m *Model) SetGaugeFunc(fn func() Gauges) {
	if m == nil {
		return
	}
	// A nil fn is stored as a typed nil func (atomic.Value rejects only the
	// untyped nil); the scrape path treats it the same as never-set.
	m.gauges.Store(fn)
}

// RequestLatency exposes the request-latency histogram (tests and adaptive
// policies; the hot path uses ObserveRequest).
func (m *Model) RequestLatency() *Histogram {
	if m == nil {
		return nil
	}
	return m.latency
}

// Registry is the scrape root: the per-model metric sets plus the few
// registry-level series (evictions, unknown-model requests, health state).
// One Registry belongs to one serve.Registry / serve.Server.
type Registry struct {
	mu     sync.RWMutex
	models map[string]*Model

	evictions atomic.Uint64
	unknown   atomic.Uint64
	health    atomic.Value // func() string
}

// NewRegistry builds an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{models: map[string]*Model{}}
}

// Model returns the named model's metric set, creating it on first use.
// Metric sets are never removed: counters survive unload/reload cycles, the
// way Prometheus counters are supposed to.
func (r *Registry) Model(name string) *Model {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	m := r.models[name]
	r.mu.RUnlock()
	if m != nil {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m = r.models[name]; m == nil {
		m = newModel(name)
		r.models[name] = m
	}
	return m
}

// Lookup returns the named model's metric set or nil — it never creates one,
// so arbitrary client-supplied names (404 traffic) cannot mint label series.
func (r *Registry) Lookup(name string) *Model {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.models[name]
}

// IncEviction counts one arena-budget LRU eviction.
func (r *Registry) IncEviction() {
	if r == nil {
		return
	}
	r.evictions.Add(1)
}

// Evictions reads the eviction counter.
func (r *Registry) Evictions() uint64 {
	if r == nil {
		return 0
	}
	return r.evictions.Load()
}

// IncUnknown counts one inference request addressed to a model name the
// repository has never registered. Deliberately unlabeled: labeling it with
// the requested name would let clients mint unbounded label series.
func (r *Registry) IncUnknown() {
	if r == nil {
		return
	}
	r.unknown.Add(1)
}

// SetHealthFunc installs the scrape-time health callback; it must return one
// of "ready", "degraded", "draining", "closed".
func (r *Registry) SetHealthFunc(fn func() string) {
	if r == nil || fn == nil {
		return
	}
	r.health.Store(fn)
}

// Handler returns the GET /metrics handler.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// snapshotModels returns the metric sets sorted by model name, for
// deterministic exposition order.
func (r *Registry) snapshotModels() []*Model {
	r.mu.RLock()
	models := make([]*Model, 0, len(r.models))
	for _, m := range r.models {
		models = append(models, m)
	}
	r.mu.RUnlock()
	sort.Slice(models, func(i, j int) bool { return models[i].name < models[j].name })
	return models
}

// WritePrometheus writes the whole registry in the Prometheus text
// exposition format (version 0.0.4). Families appear in a fixed order;
// series within a family are sorted by model name. Zero-valued code and
// breaker-transition series are elided (absent means zero); scalar per-model
// counters and histograms are always emitted so the families are visibly
// present the moment a model registers.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	b := &expoWriter{w: w}
	models := r.snapshotModels()

	b.family("neocpu_requests_total", "counter",
		"Inference requests answered, by model and HTTP status code.")
	for _, m := range models {
		for i := range m.requests {
			v := m.requests[i].Load()
			if v == 0 {
				continue
			}
			code := "other"
			if i < len(trackedCodes) {
				code = strconv.Itoa(trackedCodes[i])
			}
			b.sample("neocpu_requests_total", v, "model", m.name, "code", code)
		}
	}

	b.family("neocpu_unknown_model_requests_total", "counter",
		"Inference requests addressed to model names the repository has never registered.")
	b.sample("neocpu_unknown_model_requests_total", r.unknown.Load())

	b.family("neocpu_session_discards_total", "counter",
		"Sessions quarantined out of the pool after an execution panic.")
	for _, m := range models {
		b.sample("neocpu_session_discards_total", m.Count(Discards), "model", m.name)
	}
	b.family("neocpu_exec_panics_total", "counter",
		"Runs that failed with a recovered execution panic.")
	for _, m := range models {
		b.sample("neocpu_exec_panics_total", m.Count(Panics), "model", m.name)
	}
	b.family("neocpu_breaker_transitions_total", "counter",
		"Circuit breaker state transitions, by state entered.")
	for _, m := range models {
		for i, state := range breakerStates {
			if v := m.transitions[i].Load(); v != 0 {
				b.sample("neocpu_breaker_transitions_total", v, "model", m.name, "state", state)
			}
		}
	}
	b.family("neocpu_model_evictions_total", "counter",
		"Models evicted by the arena-budget LRU.")
	b.sample("neocpu_model_evictions_total", r.evictions.Load())

	b.family("neocpu_request_duration_seconds", "histogram",
		"Whole-handler inference request latency: decode, queue, execute, encode.")
	for _, m := range models {
		b.histogram("neocpu_request_duration_seconds", m.name, m.latency.Snapshot())
	}
	b.family("neocpu_queue_wait_seconds", "histogram",
		"Time from admission until the request held a session.")
	for _, m := range models {
		b.histogram("neocpu_queue_wait_seconds", m.name, m.queueWait.Snapshot())
	}
	b.family("neocpu_batch_duration_seconds", "histogram",
		"Execution latency of one request on its session.")
	for _, m := range models {
		b.histogram("neocpu_batch_duration_seconds", m.name, m.execLatency.Snapshot())
	}

	// Gauges: only models with a live callback (i.e. currently loaded)
	// report; unloaded models have no queue or pool to describe.
	type gaugeRow struct {
		name string
		g    Gauges
	}
	var rows []gaugeRow
	for _, m := range models {
		fn, _ := m.gauges.Load().(func() Gauges)
		if fn == nil {
			continue
		}
		rows = append(rows, gaugeRow{m.name, fn()})
	}
	b.family("neocpu_queue_depth", "gauge", "Requests waiting for a session.")
	for _, r := range rows {
		b.sample("neocpu_queue_depth", uint64(r.g.QueueDepth), "model", r.name)
	}
	b.family("neocpu_pool_sessions", "gauge", "Sessions created in the pool.")
	for _, r := range rows {
		b.sample("neocpu_pool_sessions", uint64(r.g.PoolSessions), "model", r.name)
	}
	b.family("neocpu_pool_in_use", "gauge", "Pooled sessions currently checked out.")
	for _, r := range rows {
		b.sample("neocpu_pool_in_use", uint64(r.g.PoolInUse), "model", r.name)
	}
	b.family("neocpu_pool_max_sessions", "gauge", "Session pool bound.")
	for _, r := range rows {
		b.sample("neocpu_pool_max_sessions", uint64(r.g.PoolMax), "model", r.name)
	}
	b.family("neocpu_model_arena_bytes", "gauge",
		"Total preallocated session-arena bytes for the model's pool.")
	for _, r := range rows {
		b.sample("neocpu_model_arena_bytes", uint64(r.g.ArenaBytes), "model", r.name)
	}

	b.family("neocpu_health_state", "gauge",
		"Server health state machine; exactly one state is 1.")
	current := ""
	if fn, _ := r.health.Load().(func() string); fn != nil {
		current = fn()
	}
	for _, state := range healthStates {
		v := uint64(0)
		if state == current {
			v = 1
		}
		b.sample("neocpu_health_state", v, "state", state)
	}
	return b.err
}

// expoWriter accumulates exposition lines, amortizing the buffer and
// capturing the first write error.
type expoWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (b *expoWriter) flush() {
	if b.err == nil && len(b.buf) > 0 {
		_, b.err = b.w.Write(b.buf)
	}
	b.buf = b.buf[:0]
}

func (b *expoWriter) family(name, typ, help string) {
	b.buf = append(b.buf, "# HELP "...)
	b.buf = append(b.buf, name...)
	b.buf = append(b.buf, ' ')
	b.buf = append(b.buf, help...)
	b.buf = append(b.buf, "\n# TYPE "...)
	b.buf = append(b.buf, name...)
	b.buf = append(b.buf, ' ')
	b.buf = append(b.buf, typ...)
	b.buf = append(b.buf, '\n')
	b.flush()
}

// sample writes one `name{labels} value` line; labels are alternating
// key/value pairs, values escaped per the exposition format.
func (b *expoWriter) sample(name string, v uint64, labels ...string) {
	b.buf = appendSeries(b.buf, name, labels)
	b.buf = append(b.buf, ' ')
	b.buf = strconv.AppendUint(b.buf, v, 10)
	b.buf = append(b.buf, '\n')
	b.flush()
}

func (b *expoWriter) sampleFloat(name string, v float64, labels ...string) {
	b.buf = appendSeries(b.buf, name, labels)
	b.buf = append(b.buf, ' ')
	b.buf = appendFloat(b.buf, v)
	b.buf = append(b.buf, '\n')
	b.flush()
}

// histogram writes one histogram series set: cumulative _bucket lines with
// le bounds (always including +Inf), then _sum and _count.
func (b *expoWriter) histogram(name, model string, s HistogramSnapshot) {
	for i, cum := range s.Buckets {
		le := "+Inf"
		if i < len(s.Bounds) {
			le = formatBound(s.Bounds[i])
		}
		b.sample(name+"_bucket", cum, "model", model, "le", le)
	}
	b.sampleFloat(name+"_sum", s.Sum, "model", model)
	b.sample(name+"_count", s.Count, "model", model)
}

func appendSeries(buf []byte, name string, labels []string) []byte {
	buf = append(buf, name...)
	if len(labels) == 0 {
		return buf
	}
	buf = append(buf, '{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, labels[i]...)
		buf = append(buf, '=', '"')
		buf = appendEscapedLabel(buf, labels[i+1])
		buf = append(buf, '"')
	}
	return append(buf, '}')
}

// appendEscapedLabel escapes a label value per the exposition format:
// backslash, double quote and newline must be escaped; anything else passes
// through verbatim (values are UTF-8). This is what keeps hostile model
// names (from repository file names) from corrupting the format — see
// FuzzMetricsLabels.
func appendEscapedLabel(buf []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			buf = append(buf, '\\', '\\')
		case '"':
			buf = append(buf, '\\', '"')
		case '\n':
			buf = append(buf, '\\', 'n')
		default:
			buf = append(buf, c)
		}
	}
	return buf
}

func appendFloat(buf []byte, v float64) []byte {
	if math.IsInf(v, +1) {
		return append(buf, "+Inf"...)
	}
	if math.IsInf(v, -1) {
		return append(buf, "-Inf"...)
	}
	if math.IsNaN(v) {
		return append(buf, "NaN"...)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// formatBound renders a bucket bound the way Prometheus clients do: shortest
// round-trip decimal.
func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// String implements fmt.Stringer for debugging convenience.
func (r *Registry) String() string {
	return fmt.Sprintf("metrics.Registry(%d models)", len(r.snapshotModels()))
}
