// Package serve turns a compiled core.Module into an inference service: a
// bounded pool of arena-reusing Sessions, an admission front that runs each
// request on an idle session at once, and an HTTP server speaking a
// kserve-v2-style JSON protocol. It is the paper's end goal — CNN inference
// serving on commodity CPUs — layered on the execution engine: the module's
// weights and threading runtime are shared read-only, each in-flight request
// runs on one pooled session, and steady-state request handling allocates
// far less than one session arena per request.
package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/serve/metrics"
)

// SessionPool is a bounded, lazily grown pool of core.Sessions over one
// compiled module. Sessions are expensive (one preallocated tensor arena
// each), so the pool creates them on demand up to Max and then recycles:
// Acquire hands out an idle session or blocks until one is released, and at
// most a fixed number of callers block at once. One session is created
// eagerly so construction fails fast on modules that cannot execute
// (predict-only) and readiness probes reflect a warm arena.
type SessionPool struct {
	mod   *core.Module
	max   int
	queue int // bound on callers blocked in Acquire

	// metrics is the model's metric set; the pool counts acquires, waits
	// and discards there.
	metrics *metrics.Model

	idle chan *core.Session

	// mu guards the session list and the waiter count, so Stats sees
	// Idle <= Size <= MaxSize even mid-traffic.
	mu       sync.Mutex
	sessions []*core.Session // every live session, for stats
	waiting  int             // callers blocked in Acquire right now
}

// defaultPoolSize is the session-pool bound when none is set: the process's
// cores divided among the module's kernel threads, so sessions × threads
// fills the cores rather than oversubscribing them, as the paper's runtime
// sizes its thread pool. A module at one thread gets one session per core; a
// module at least as wide as the process gets one session.
func defaultPoolSize(mod *core.Module) int {
	return max(1, runtime.GOMAXPROCS(0)/mod.Threads())
}

// NewSessionPool creates a pool bounded at max sessions, of which at most
// queue callers may wait for one at a time. The pool's counters go to m, the
// model's metric set.
func NewSessionPool(mod *core.Module, max, queue int, m *metrics.Model) (*SessionPool, error) {
	if max <= 0 {
		return nil, fmt.Errorf("serve: pool size must be positive, got %d", max)
	}
	if queue <= 0 {
		return nil, fmt.Errorf("serve: queue depth must be positive, got %d", queue)
	}
	p := &SessionPool{
		mod:     mod,
		max:     max,
		queue:   queue,
		metrics: m,
		idle:    make(chan *core.Session, max),
	}
	s, err := mod.NewSession()
	if err != nil {
		return nil, err
	}
	p.sessions = append(p.sessions, s)
	p.idle <- s
	return p, nil
}

// Acquire returns a session for exclusive use. It prefers an idle session,
// grows the pool if it is still under its bound, and otherwise blocks until
// a session is released or ctx is done; waiters are served FIFO. When the
// queue bound's worth of callers already wait, it fails at once with
// ErrQueueFull. Every acquired session must be handed back with Release or
// Discard.
func (p *SessionPool) Acquire(ctx context.Context) (*core.Session, error) {
	p.metrics.Inc(metrics.Acquires)
	if err := faults.Fire(faults.SitePoolAcquire, p.mod.Graph.Name); err != nil {
		return nil, err
	}
	select {
	case s := <-p.idle:
		return s, nil
	default:
	}
	p.mu.Lock()
	if len(p.sessions) < p.max {
		s, err := p.mod.NewSession()
		if err != nil {
			p.mu.Unlock()
			return nil, err
		}
		p.sessions = append(p.sessions, s)
		p.mu.Unlock()
		return s, nil
	}
	if p.waiting >= p.queue {
		p.mu.Unlock()
		return nil, ErrQueueFull
	}
	p.waiting++
	p.metrics.Inc(metrics.Waits) // after Acquires: see poolCounters
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.waiting--
		p.mu.Unlock()
	}()
	select {
	case s := <-p.idle:
		return s, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Waiting reports how many callers are blocked in Acquire.
func (p *SessionPool) Waiting() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.waiting
}

// Release returns an acquired session to the pool.
func (p *SessionPool) Release(s *core.Session) {
	if s == nil {
		return
	}
	select {
	case p.idle <- s:
	default:
		// Impossible by construction (the channel holds Max and at most Max
		// sessions exist), but dropping beats deadlocking if an alien session
		// is released here.
	}
}

// Discard removes an acquired session from the pool instead of recycling it
// — the quarantine path for sessions whose execution panicked and whose
// arena may hold partial writes. The slot it occupied frees up. A caller
// blocked in Acquire waits for a Release this slot will never make, so
// while anyone waits, Discard grows the replacement into the idle list at
// once; otherwise the next Acquire that misses the idle list grows it.
func (p *SessionPool) Discard(s *core.Session) {
	if s == nil {
		return
	}
	p.metrics.Inc(metrics.Discards)
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, have := range p.sessions {
		if have == s {
			p.sessions = append(p.sessions[:i], p.sessions[i+1:]...)
			break
		}
	}
	if p.waiting == 0 || len(p.sessions) >= p.max {
		return
	}
	if r, err := p.mod.NewSession(); err == nil {
		p.sessions = append(p.sessions, r)
		p.idle <- r // room: idle holds at most len(sessions)-1 others
	}
}

// PoolStats is a snapshot of the pool's live occupancy and of the model's
// cumulative pool and execution counters.
type PoolStats struct {
	// Size is the number of sessions created so far; MaxSize the bound;
	// Idle how many currently sit in the free list.
	Size    int `json:"size"`
	MaxSize int `json:"max_size"`
	Idle    int `json:"idle"`
	// Acquires counts Acquire calls; Waits counts the ones that found the
	// pool exhausted and had to block. Waits/Acquires rising toward 1 is the
	// signal to grow the pool (or add machines).
	Acquires uint64 `json:"acquires"`
	Waits    uint64 `json:"waits"`
	// Discards counts sessions quarantined out of the pool after a panic.
	Discards uint64 `json:"discards"`
	// Runs counts executions, failed ones included; Items the successful
	// ones; Busy the wall-clock they spent on their sessions.
	Runs  uint64        `json:"runs"`
	Items uint64        `json:"items"`
	Busy  time.Duration `json:"busy_ns"`
	// ArenaBytes is the total preallocated arena across created sessions;
	// ArenaBytesPerSession sizes one more session's worth of growth.
	ArenaBytes           int `json:"arena_bytes"`
	ArenaBytesPerSession int `json:"arena_bytes_per_session"`
}

// poolCounters reads the cumulative half of PoolStats from a model's metric
// set. The counters outlive any one pool, so they survive discards and
// unload/reload, as /metrics does.
func poolCounters(m *metrics.Model) PoolStats {
	// Load each counter before the one its increment site bumps first:
	// Acquire counts its acquire before its wait, and a run its execution
	// before its item, so no snapshot shows Waits > Acquires or
	// Items > Runs.
	waits, items := m.Count(metrics.Waits), m.Count(metrics.Items)
	runs, busy := m.ExecTotals()
	return PoolStats{
		Acquires: m.Count(metrics.Acquires),
		Waits:    waits,
		Discards: m.Count(metrics.Discards),
		Runs:     runs,
		Items:    items,
		Busy:     busy,
	}
}

// Stats snapshots the pool: the model's counters, then the live occupancy
// under one lock, so Idle <= Size <= MaxSize holds within one PoolStats even
// while Acquire/Release/Discard run concurrently.
func (p *SessionPool) Stats() PoolStats {
	st := poolCounters(p.metrics)
	p.mu.Lock()
	defer p.mu.Unlock()
	st.Size = len(p.sessions)
	st.MaxSize = p.max
	st.Idle = len(p.idle)
	for _, s := range p.sessions {
		st.ArenaBytes += s.ArenaBytes()
	}
	if len(p.sessions) > 0 {
		st.ArenaBytesPerSession = st.ArenaBytes / len(p.sessions)
	}
	return st
}
