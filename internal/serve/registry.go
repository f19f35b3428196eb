package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/serve/metrics"
	"repro/internal/tensor"
)

// Typed registry errors. The HTTP layer maps them onto kserve-style status
// codes: unknown model 404, known-but-unloaded 503, transitioning 409,
// budget exhaustion 507.
var (
	// ErrModelNotFound marks a model name the repository has never heard of.
	ErrModelNotFound = errors.New("serve: model not found")
	// ErrModelNotReady marks a known model that is not currently loaded
	// (never loaded, explicitly unloaded, evicted, or failed).
	ErrModelNotReady = errors.New("serve: model not ready")
	// ErrModelBusy marks a model mid-transition (loading or unloading).
	ErrModelBusy = errors.New("serve: model is busy")
	// ErrArenaBudget is returned when loading a model would exceed the
	// registry's arena budget and no idle model can be evicted to make room.
	ErrArenaBudget = errors.New("serve: arena budget exhausted")
)

// ModelState is one model's lifecycle position in the registry.
type ModelState string

// The registry lifecycle: available → loading → ready → unloading →
// unloaded (→ loading again), with failed reachable from loading.
const (
	// StateAvailable: known to the source, never loaded.
	StateAvailable ModelState = "available"
	// StateLoading: a Load is building the module/pool.
	StateLoading ModelState = "loading"
	// StateReady: serving.
	StateReady ModelState = "ready"
	// StateUnloading: draining in-flight batches before teardown.
	StateUnloading ModelState = "unloading"
	// StateUnloaded: was loaded, then unloaded or evicted.
	StateUnloaded ModelState = "unloaded"
	// StateFailed: the last Load failed (see ModelStatus.Reason).
	StateFailed ModelState = "failed"
	// StateDegraded: loaded, but the model's circuit breaker is open after
	// repeated execution failures — only probe traffic is admitted. This is
	// a reported state (Index, StateOf), not a stored one: the entry stays
	// StateReady and recovers without a lifecycle transition.
	StateDegraded ModelState = "degraded"
)

// HealthState is the server-wide health state machine reported by
// /v2/health/ready.
type HealthState string

const (
	// HealthReady: serving normally.
	HealthReady HealthState = "ready"
	// HealthDegraded: serving, but at least one loaded model's circuit
	// breaker is open. Healthy co-hosted models are unaffected.
	HealthDegraded HealthState = "degraded"
	// HealthDraining: admission stopped, in-flight work finishing.
	HealthDraining HealthState = "draining"
	// HealthClosed: shut down.
	HealthClosed HealthState = "closed"
)

// ModelSource provides compiled modules by name — typically a repository
// directory of artifact bundles (DirSource). Implementations must be safe
// for concurrent use.
type ModelSource interface {
	// List enumerates the model names the source can load.
	List() ([]string, error)
	// Load materializes one model as an executable module. The registry owns
	// the returned module and Closes it on unload/eviction.
	Load(name string, opts core.Options) (*core.Module, error)
}

// ConfigSource is an optional ModelSource extension providing per-model
// serving configuration (pool bound, batcher shape).
type ConfigSource interface {
	// Config returns the model's serving config and whether one was found.
	Config(name string) (Config, bool, error)
}

// RegistryConfig tunes a model registry.
type RegistryConfig struct {
	// ArenaBudget caps the total session-arena bytes reserved across ready
	// models; 0 means unlimited. Loading past the budget evicts
	// least-recently-used idle models; if nothing idle can be evicted the
	// load fails with ErrArenaBudget.
	ArenaBudget int
	// Defaults is the per-model serving config used when neither Overrides
	// nor the source provides one.
	Defaults Config
	// Overrides maps model names to serving configs, taking precedence over
	// source-provided and default configs.
	Overrides map[string]Config
	// LoadOptions are the runtime knobs passed to bundle loading: Threads,
	// Backend and SharedPool. Pass a SharedPool so N loaded models contend
	// for one set of worker goroutines.
	LoadOptions core.Options
}

// entry is one model's registry slot. The state field is the concurrency
// contract: every transition happens under Registry.mu, and teardown only
// begins after the entry is marked StateUnloading with zero in-flight
// requests (eviction) or with the batcher's own drain protocol (unload).
type entry struct {
	name  string
	state ModelState
	// mod is the executable module. Static entries (AddStatic) retain a
	// caller-owned module across unload/reload and never Close it; source
	// entries own theirs and Close it on teardown.
	mod     *core.Module
	ownsMod bool
	pool    *SessionPool
	batcher *Batcher
	// breaker is the model's circuit breaker (nil when disabled). Set while
	// loading and immutable until teardown, so it may be used without
	// holding Registry.mu once read under it.
	breaker *Breaker
	cfg     Config
	// lastUsed is the registry clock value of the most recent request —
	// the LRU eviction key. inflight counts requests currently inside
	// Batcher.Do; eviction skips entries with inflight > 0.
	lastUsed uint64
	inflight int
	// reserved is this entry's charge against the arena budget while ready.
	reserved int
	// failure is the last Load error (StateFailed).
	failure error
}

// Registry owns N models' serving state — session pools, batchers, lifecycle
// — under one global arena budget. All methods are safe for concurrent use;
// loads, unloads and evictions can overlap with inference traffic on other
// models and with rejected traffic on the transitioning one.
type Registry struct {
	source ModelSource
	cfg    RegistryConfig

	// metrics is the registry's observability root: every known model gets
	// a metric set the moment it is registered (source listing or
	// AddStatic), so counters survive unload/reload and client-supplied
	// names can never mint label series (serve's handlers use Lookup, which
	// never creates).
	metrics *metrics.Registry

	mu        sync.Mutex
	models    map[string]*entry
	clock     uint64
	reserved  int
	evictions uint64
	draining  bool
	closed    bool
}

// NewRegistry builds a registry over a model source. Every model the source
// lists starts StateAvailable; call Load (or the repository HTTP endpoint)
// to bring one up. source may be nil for a registry populated only via
// AddStatic.
func NewRegistry(source ModelSource, cfg RegistryConfig) (*Registry, error) {
	r := &Registry{source: source, cfg: cfg, models: map[string]*entry{}}
	r.metrics = metrics.NewRegistry()
	r.metrics.SetHealthFunc(func() string { return string(r.Health()) })
	if source != nil {
		if err := r.Refresh(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Metrics returns the registry's metric root (the /metrics endpoint's
// backing store).
func (r *Registry) Metrics() *metrics.Registry { return r.metrics }

// Refresh re-lists the source and registers newly appeared models as
// StateAvailable. Models that disappeared from the source keep their entries
// (an unloaded entry costs nothing; a ready one keeps serving).
func (r *Registry) Refresh() error {
	if r.source == nil {
		return nil
	}
	names, err := r.source.List()
	if err != nil {
		return fmt.Errorf("serve: refresh repository: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range names {
		if _, ok := r.models[name]; !ok {
			r.models[name] = &entry{name: name, state: StateAvailable, cfg: r.modelConfig(name)}
			r.metrics.Model(name)
		}
	}
	return nil
}

// modelConfig resolves one model's serving config: override, then source
// sidecar, then registry default.
func (r *Registry) modelConfig(name string) Config {
	if c, ok := r.cfg.Overrides[name]; ok {
		return c
	}
	if cs, ok := r.source.(ConfigSource); ok {
		if c, found, err := cs.Config(name); err == nil && found {
			return c
		}
	}
	return r.cfg.Defaults
}

// AddStatic registers a caller-owned compiled module and brings it up
// immediately. The module is retained across unload/reload cycles and never
// Closed by the registry — the caller owns its lifetime. The single-model
// Server is built on this.
func (r *Registry) AddStatic(name string, mod *core.Module, cfg Config) error {
	if name == "" {
		name = mod.Graph.Name
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	if _, dup := r.models[name]; dup {
		r.mu.Unlock()
		return fmt.Errorf("serve: model %q is already registered", name)
	}
	e := &entry{name: name, state: StateAvailable, mod: mod, cfg: cfg}
	r.models[name] = e
	r.metrics.Model(name)
	r.mu.Unlock()
	return r.Load(name)
}

// Load brings a model to StateReady: resolves its module (retained static
// module, or the source), reserves arena budget — evicting LRU idle models
// if needed — and builds the session pool and batcher. Loading an already
// ready model is a no-op; loading one mid-transition fails with
// ErrModelBusy.
func (r *Registry) Load(name string) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	e, ok := r.models[name]
	if !ok && r.source != nil {
		// The repository directory may have gained the bundle since boot.
		r.mu.Unlock()
		if err := r.Refresh(); err != nil {
			return err
		}
		r.mu.Lock()
		e, ok = r.models[name]
	}
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrModelNotFound, name)
	}
	switch e.state {
	case StateReady:
		r.mu.Unlock()
		return nil
	case StateLoading, StateUnloading:
		st := e.state
		r.mu.Unlock()
		return fmt.Errorf("%w: %q is %s", ErrModelBusy, name, st)
	}
	e.state = StateLoading
	e.failure = nil
	r.mu.Unlock()

	mod := e.mod // retained static module, nil for source entries
	owns := false
	if mod == nil {
		if r.source == nil {
			err := fmt.Errorf("serve: model %q has no module and the registry has no source", name)
			r.failLoad(e, nil, false, err)
			return err
		}
		var err error
		mod, err = r.sourceLoad(name)
		if err != nil {
			err = fmt.Errorf("serve: load model %q: %w", name, err)
			r.failLoad(e, nil, false, err)
			return err
		}
		owns = true
	}

	cfg := e.cfg.withDefaults()
	poolSize := cfg.PoolSize
	if poolSize == 0 {
		poolSize = defaultPoolSize(mod, cfg.ArenaBudget)
	}
	need := poolSize * mod.PlanStats().ArenaBytes
	if err := r.reserve(e, need); err != nil {
		r.failLoad(e, mod, owns, err)
		return err
	}
	pool, err := NewSessionPool(mod, poolSize)
	if err != nil {
		r.unreserve(need)
		r.failLoad(e, mod, owns, err)
		return err
	}
	batcher := NewBatcher(name, pool, cfg)
	mm := r.metrics.Model(name)
	batcher.SetMetrics(mm)
	var breaker *Breaker
	if cfg.BreakerThreshold > 0 {
		breaker = newBreaker(cfg.BreakerThreshold, cfg.BreakerWindow, cfg.BreakerCooldown)
		// The batcher reports each batch's execution outcome; panics and
		// executor errors count toward tripping, client aborts do not.
		batcher.OnBatchDone(breaker.Record)
		breaker.OnTransition(mm.BreakerTransition)
	}
	// Gauges are scrape-time callbacks over the live pool and queue; the
	// teardown path clears this before the pool is dropped, so a scrape
	// never touches a torn-down model.
	mm.SetGaugeFunc(func() metrics.Gauges {
		ps := pool.Stats()
		return metrics.Gauges{
			QueueDepth:   batcher.QueueDepth(),
			PoolSessions: ps.Size,
			PoolInUse:    ps.Size - ps.Idle,
			PoolMax:      ps.MaxSize,
			ArenaBytes:   ps.ArenaBytes,
		}
	})

	r.mu.Lock()
	e.mod = mod
	e.ownsMod = e.ownsMod || owns
	e.pool = pool
	e.batcher = batcher
	e.breaker = breaker
	e.reserved = need
	e.state = StateReady
	r.clock++
	e.lastUsed = r.clock
	r.mu.Unlock()
	return nil
}

// sourceLoad pulls one model from the source, retrying transient failures —
// torn reads, interrupted I/O — with doubling backoff. Deterministic
// failures (missing bundle, permission, a bundle that is simply invalid) are
// not retried; artifact.Retryable draws the line. The fault-injection site
// fires inside the loop, so injected transient faults exercise the retry
// path end to end.
func (r *Registry) sourceLoad(name string) (*core.Module, error) {
	const attempts = 3
	backoff := 25 * time.Millisecond
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		if err = faults.Fire(faults.SiteRegistryLoad, name); err == nil {
			var mod *core.Module
			if mod, err = r.source.Load(name, r.cfg.LoadOptions); err == nil {
				return mod, nil
			}
		}
		if !artifact.Retryable(err) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("serve: %d attempts failed, last: %w", attempts, err)
}

// failLoad records a load failure and releases what the attempt acquired.
func (r *Registry) failLoad(e *entry, mod *core.Module, owns bool, err error) {
	if owns && mod != nil {
		mod.Close()
	}
	r.mu.Lock()
	e.state = StateFailed
	e.failure = err
	r.mu.Unlock()
}

// reserve charges need bytes against the arena budget, evicting
// least-recently-used idle models until the charge fits. An eviction fully
// drains the victim's batcher before its pool is torn down, so no session is
// ever destroyed while checked out.
func (r *Registry) reserve(self *entry, need int) error {
	for {
		r.mu.Lock()
		if r.cfg.ArenaBudget <= 0 || r.reserved+need <= r.cfg.ArenaBudget {
			r.reserved += need
			r.mu.Unlock()
			return nil
		}
		var victim *entry
		for _, e := range r.models {
			if e == self || e.state != StateReady || e.inflight != 0 {
				continue
			}
			if victim == nil || e.lastUsed < victim.lastUsed {
				victim = e
			}
		}
		if victim == nil {
			reserved, budget := r.reserved, r.cfg.ArenaBudget
			r.mu.Unlock()
			return fmt.Errorf("%w: loading %q needs %d arena bytes, %d of %d already reserved and no idle model to evict",
				ErrArenaBudget, self.name, need, reserved, budget)
		}
		victim.state = StateUnloading
		r.mu.Unlock()
		r.teardown(victim, true)
	}
}

func (r *Registry) unreserve(n int) {
	r.mu.Lock()
	r.reserved -= n
	r.mu.Unlock()
}

// teardown drains and releases a model previously marked StateUnloading.
// Batcher.Close waits for in-flight batches, so every pooled session is back
// on the idle list before the module (and with it the arenas) is dropped.
func (r *Registry) teardown(e *entry, evicted bool) {
	e.batcher.Close()
	r.metrics.Lookup(e.name).SetGaugeFunc(nil)
	if evicted {
		r.metrics.IncEviction()
	}
	mod, owns := e.mod, e.ownsMod
	r.mu.Lock()
	r.reserved -= e.reserved
	e.reserved = 0
	e.pool = nil
	e.batcher = nil
	e.breaker = nil
	if owns {
		e.mod = nil
		e.ownsMod = false
	}
	e.state = StateUnloaded
	if evicted {
		r.evictions++
	}
	r.mu.Unlock()
	if owns {
		mod.Close()
	}
}

// Unload takes a ready model out of service, draining in-flight batches
// first. Unloading a model that is not loaded is a no-op; unloading one
// mid-transition fails with ErrModelBusy.
func (r *Registry) Unload(name string) error {
	r.mu.Lock()
	e, ok := r.models[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrModelNotFound, name)
	}
	switch e.state {
	case StateLoading, StateUnloading:
		st := e.state
		r.mu.Unlock()
		return fmt.Errorf("%w: %q is %s", ErrModelBusy, name, st)
	case StateReady:
	default:
		r.mu.Unlock()
		return nil
	}
	e.state = StateUnloading
	r.mu.Unlock()
	r.teardown(e, false)
	return nil
}

// Module returns a ready model's module for read-only use (metadata, input
// geometry). Unknown names fail with ErrModelNotFound; known but unloaded
// models with ErrModelNotReady.
func (r *Registry) Module(name string) (*core.Module, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.models[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrModelNotFound, name)
	}
	if e.state != StateReady {
		return nil, fmt.Errorf("%w: %q is %s", ErrModelNotReady, name, e.state)
	}
	return e.mod, nil
}

// Infer routes one input through the named model's micro-batcher. The entry
// is pinned with an in-flight count for the duration, which is what makes
// LRU eviction safe: eviction only ever selects models with zero in-flight
// requests, atomically with marking them unloading.
func (r *Registry) Infer(ctx context.Context, name string, in *tensor.Tensor) ([]*tensor.Tensor, error) {
	outs, _, err := r.InferTraced(ctx, name, in)
	return outs, err
}

// InferTraced is Infer plus the ID of the micro-batch that carried the
// request (0 when it never reached one) — the access log's batch_id field.
func (r *Registry) InferTraced(ctx context.Context, name string, in *tensor.Tensor) ([]*tensor.Tensor, uint64, error) {
	r.mu.Lock()
	if r.draining || r.closed {
		r.mu.Unlock()
		return nil, 0, ErrClosed
	}
	e, ok := r.models[name]
	if !ok {
		r.mu.Unlock()
		return nil, 0, fmt.Errorf("%w: %q", ErrModelNotFound, name)
	}
	if e.state != StateReady {
		st := e.state
		r.mu.Unlock()
		return nil, 0, fmt.Errorf("%w: %q is %s", ErrModelNotReady, name, st)
	}
	e.inflight++
	r.clock++
	e.lastUsed = r.clock
	b, br := e.batcher, e.breaker
	r.mu.Unlock()
	var outs []*tensor.Tensor
	var batchID uint64
	var err error
	if br != nil && !br.Allow() {
		err = fmt.Errorf("%w: %q (circuit breaker open)", ErrModelDegraded, name)
	} else {
		outs, batchID, err = b.DoTraced(ctx, in)
	}
	r.mu.Lock()
	e.inflight--
	r.mu.Unlock()
	return outs, batchID, err
}

// Drain stops admission registry-wide: Infer refuses new requests while
// in-flight ones run to completion. Loaded models stay loaded (Close tears
// them down). Idempotent.
func (r *Registry) Drain() {
	r.mu.Lock()
	r.draining = true
	r.mu.Unlock()
}

// Health reduces the registry to the server-wide health state machine:
// draining/closed dominate; otherwise any circuit-broken loaded model makes
// the whole server report degraded (it still serves the healthy ones).
func (r *Registry) Health() HealthState {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.closed:
		return HealthClosed
	case r.draining:
		return HealthDraining
	}
	for _, e := range r.models {
		if e.state == StateReady && e.breaker != nil && e.breaker.Degraded() {
			return HealthDegraded
		}
	}
	return HealthReady
}

// StateOf reports one model's lifecycle state, surfacing StateDegraded for
// loaded models whose circuit breaker is open.
func (r *Registry) StateOf(name string) (ModelState, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.models[name]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrModelNotFound, name)
	}
	if e.state == StateReady && e.breaker != nil && e.breaker.Degraded() {
		return StateDegraded, nil
	}
	return e.state, nil
}

// RetryAfterSeconds derives a Retry-After value for one model's 429/503
// responses: the larger of the batcher's queue-based wait estimate and the
// breaker's remaining cooldown, floored at 1 second.
func (r *Registry) RetryAfterSeconds(name string) int {
	r.mu.Lock()
	var b *Batcher
	var br *Breaker
	if e, ok := r.models[name]; ok {
		b, br = e.batcher, e.breaker
	}
	r.mu.Unlock()
	secs := 1
	if b != nil {
		secs = b.RetryAfterSeconds()
	}
	if br != nil {
		if c := int(math.Ceil(br.RetryAfter().Seconds())); c > secs {
			secs = c
		}
	}
	return secs
}

// ModelStatus is one model's repository-index row.
type ModelStatus struct {
	Name  string `json:"name"`
	State string `json:"state"`
	Ready bool   `json:"ready"`
	// Reason carries the failure message for StateFailed entries.
	Reason string `json:"reason,omitempty"`
	// ArenaReservedBytes is the model's current charge against the budget.
	ArenaReservedBytes int `json:"arena_reserved_bytes,omitempty"`
	// Inflight counts requests currently inside the model's batcher.
	Inflight int `json:"inflight,omitempty"`
}

// Index snapshots every known model's lifecycle state, sorted by name. When
// the registry has a source it is re-listed first, so bundles dropped into a
// repository directory appear without a restart.
func (r *Registry) Index() []ModelStatus {
	if r.source != nil {
		// Best effort: a transiently unlistable source still yields the
		// already known entries.
		_ = r.Refresh()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := make([]ModelStatus, 0, len(r.models))
	for _, e := range r.models {
		state := e.state
		if state == StateReady && e.breaker != nil && e.breaker.Degraded() {
			state = StateDegraded
		}
		st := ModelStatus{
			Name:               e.name,
			State:              string(state),
			Ready:              state == StateReady,
			ArenaReservedBytes: e.reserved,
			Inflight:           e.inflight,
		}
		if e.failure != nil {
			st.Reason = e.failure.Error()
		}
		idx = append(idx, st)
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i].Name < idx[j].Name })
	return idx
}

// ModelStats is one model's serving counters plus its lifecycle state.
type ModelStats struct {
	Model string     `json:"model"`
	State string     `json:"state"`
	Pool  PoolStats  `json:"pool"`
	Batch BatchStats `json:"batch"`
}

// RegistryStats aggregates the registry's per-model serving counters.
type RegistryStats struct {
	Models             []ModelStats `json:"models"`
	ArenaReservedBytes int          `json:"arena_reserved_bytes"`
	ArenaBudgetBytes   int          `json:"arena_budget_bytes,omitempty"`
	Evictions          uint64       `json:"evictions"`
}

// Stats snapshots every model's pool and batcher counters. Models that are
// not ready report zeroed counters with their state.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	type snap struct {
		name    string
		state   ModelState
		pool    *SessionPool
		batcher *Batcher
	}
	snaps := make([]snap, 0, len(r.models))
	for _, e := range r.models {
		snaps = append(snaps, snap{e.name, e.state, e.pool, e.batcher})
	}
	st := RegistryStats{
		ArenaReservedBytes: r.reserved,
		ArenaBudgetBytes:   r.cfg.ArenaBudget,
		Evictions:          r.evictions,
	}
	r.mu.Unlock()
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].name < snaps[j].name })
	for _, s := range snaps {
		ms := ModelStats{Model: s.name, State: string(s.state)}
		if s.pool != nil {
			ms.Pool = s.pool.Stats()
		}
		if s.batcher != nil {
			ms.Batch = s.batcher.Stats()
		}
		st.Models = append(st.Models, ms)
	}
	return st
}

// ModelStatsFor returns one ready model's serving counters (the single-model
// Server.Stats compatibility path).
func (r *Registry) ModelStatsFor(name string) (Stats, error) {
	r.mu.Lock()
	e, ok := r.models[name]
	if !ok {
		r.mu.Unlock()
		return Stats{}, fmt.Errorf("%w: %q", ErrModelNotFound, name)
	}
	pool, batcher := e.pool, e.batcher
	r.mu.Unlock()
	st := Stats{Model: name}
	if pool != nil {
		st.Pool = pool.Stats()
	}
	if batcher != nil {
		st.Batch = batcher.Stats()
	}
	return st, nil
}

// Evictions returns how many models the budget has evicted so far.
func (r *Registry) Evictions() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evictions
}

// Close drains and unloads every ready model and refuses further loads.
// Static modules are left open for their owners. Idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	var victims []*entry
	for _, e := range r.models {
		if e.state == StateReady {
			e.state = StateUnloading
			victims = append(victims, e)
		}
	}
	r.mu.Unlock()
	for _, e := range victims {
		r.teardown(e, false)
	}
}
