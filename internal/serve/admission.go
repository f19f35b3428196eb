package serve

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/serve/metrics"
	"repro/internal/tensor"
)

// Typed serving errors.
var (
	// ErrQueueFull is returned by Admission.DoTraced when every session is
	// busy and QueueDepth requests already wait for one — the HTTP layer
	// maps it to 429 (backpressure).
	ErrQueueFull = errors.New("serve: request queue is full")
	// ErrClosed is returned for requests that arrive during or after
	// shutdown.
	ErrClosed = errors.New("serve: server is closed")
	// ErrDeadline is returned for requests whose deadline budget cannot be
	// met: either the live queue is predicted to outlast the remaining
	// budget at admission, or the deadline expired while the request waited
	// for a session or ran. The HTTP layer maps it to 504.
	ErrDeadline = errors.New("serve: request deadline exceeded")
	// ErrModelDegraded is returned while a model's circuit breaker is open:
	// repeated execution failures quarantined it, and only probe traffic is
	// admitted until it recovers. The HTTP layer maps it to 503 with a
	// Retry-After.
	ErrModelDegraded = errors.New("serve: model is degraded")
)

// Admission is one model's admission front: it admits inference requests
// and runs each on a pooled session, on the caller's goroutine. Batch-1
// latency is the serving goal, so a request that finds an idle session runs
// at once.
//
// DoTraced takes an idle session or grows the pool. When every session is
// busy it waits in SessionPool.Acquire, FIFO behind the other waiters; at
// most QueueDepth requests wait at once, and the next one is refused with
// ErrQueueFull. A request whose deadline the live queue cannot meet is
// refused with ErrDeadline rather than admitted to time out, and a waiter
// whose deadline passes leaves through its own context.
//
// The admission front is also the panic-isolation boundary of the serving
// stack: a run that fails with *core.ExecPanicError fails only its own
// request, and the (possibly arena-corrupted) session that panicked is
// discarded from the pool instead of recycled.
//
// Its counters (rejected, shed, panics, items, and the execution and
// queue-wait histograms) go to the pool's metric set.
type Admission struct {
	model string // fault-site label and error context
	pool  *SessionPool
	drain time.Duration

	// baseCtx is cancelled once Close stops waiting for the drain; every
	// run's context is cancelled with it.
	baseCtx context.Context
	cancel  context.CancelFunc

	// draining stops admission while Close lets in-flight work finish;
	// active counts admitted requests not yet answered (the drain signal).
	draining atomic.Bool
	active   atomic.Int64

	// ewmaNanos tracks one request's observed execution latency
	// (exponentially weighted), the basis for Retry-After and deadline
	// admission.
	ewmaNanos atomic.Int64

	// onResult, when set, is called once per executed request with its
	// execution failure (nil for success or client-caused aborts) — the
	// registry hangs the model's circuit breaker on it.
	onResult func(error)

	// nextExec mints execution IDs (1-based; 0 means "never ran").
	nextExec atomic.Uint64
}

// AdmissionStats is a snapshot of the admission front's counters.
type AdmissionStats struct {
	// Rejected counts requests refused with ErrQueueFull.
	Rejected uint64 `json:"rejected"`
	// Shed counts requests refused or dropped for deadline reasons: budgets
	// the live queue could not meet at admission, and waiters whose context
	// ended (deadline or client gone) before a session freed up.
	Shed uint64 `json:"shed"`
	// Panics counts runs that failed with a recovered execution panic (each
	// also discarded its session from the pool).
	Panics uint64 `json:"panics"`
	// EstimatedWaitNS is the current waiters × observed-execution-latency
	// wait prediction, the basis for Retry-After.
	EstimatedWaitNS int64 `json:"estimated_wait_ns"`
}

// admissionCounters reads the cumulative half of AdmissionStats from a
// model's metric set.
func admissionCounters(m *metrics.Model) AdmissionStats {
	return AdmissionStats{
		Rejected: m.Count(metrics.Rejected),
		Shed:     m.Count(metrics.Shed),
		Panics:   m.Count(metrics.Panics),
	}
}

// NewAdmission builds the admission front of one model over its session
// pool. drain bounds how long Close lets admitted requests finish. onResult,
// if not nil, is called once per executed request with its execution failure
// (nil for a success; client-caused aborts are not failures).
func NewAdmission(model string, pool *SessionPool, drain time.Duration, onResult func(error)) *Admission {
	ctx, cancel := context.WithCancel(context.Background())
	return &Admission{model: model, pool: pool, drain: drain, baseCtx: ctx, cancel: cancel, onResult: onResult}
}

// QueueDepth reports the number of requests currently waiting for a session
// (the queue-depth gauge).
func (a *Admission) QueueDepth() int { return a.pool.Waiting() }

// DoTraced runs one input and blocks until it completes, the caller's ctx is
// done, or the admission front shuts down. A ctx deadline is the request's
// whole-lifetime budget: admission refuses it outright (ErrDeadline) when the
// live queue is predicted to outlast it. It also returns the request's
// execution ID (0 when it never ran) — the access log's batch_id field.
func (a *Admission) DoTraced(ctx context.Context, in *tensor.Tensor) ([]*tensor.Tensor, uint64, error) {
	// Count the request before looking at draining: Close sets draining and
	// then waits for active to reach zero, so either Close waits for this
	// request or this request sees draining.
	a.active.Add(1)
	defer a.active.Add(-1)
	if a.draining.Load() || a.baseCtx.Err() != nil {
		return nil, 0, ErrClosed
	}
	m := a.pool.metrics
	if dl, ok := ctx.Deadline(); ok {
		if wait := a.EstimatedWait(); wait > 0 && time.Until(dl) < wait {
			m.Inc(metrics.Shed)
			return nil, 0, ErrDeadline
		}
	}
	// The wait and the run also stop when Close gives up on draining.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(a.baseCtx, cancel)()

	enq := time.Now()
	sess, err := a.pool.Acquire(runCtx)
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			m.Inc(metrics.Rejected)
		case a.baseCtx.Err() != nil:
			err = ErrClosed
		case ctx.Err() != nil:
			m.Inc(metrics.Shed)
			err = perRequestError(ctx, err)
		}
		return nil, 0, err
	}
	start := time.Now()
	m.ObserveQueueWait(start.Sub(enq))
	id := a.nextExec.Add(1)

	var outs []*tensor.Tensor
	if err = faults.Fire(faults.SiteBatcherDispatch, a.model); err == nil {
		outs, err = sess.Run(runCtx, in)
	}
	if err == nil {
		// Run returns views into the session's arena: copy them out before
		// the session serves anyone else.
		outs = cloneAll(outs)
	}
	elapsed := time.Since(start)
	m.ObserveExec(elapsed)
	if err == nil {
		m.Inc(metrics.Items)
	}

	// Panic isolation: a panicked session's arena may hold partial writes —
	// quarantine it out of the pool instead of recycling it.
	var pe *core.ExecPanicError
	if errors.As(err, &pe) || sess.Corrupted() {
		a.pool.Discard(sess)
		m.Inc(metrics.Panics)
	} else {
		a.pool.Release(sess)
	}
	a.observeLatency(elapsed)
	if a.onResult != nil {
		a.onResult(execFailure(err))
	}
	if err != nil {
		if a.baseCtx.Err() != nil && errors.Is(err, context.Canceled) {
			// The cancellation came from shutdown, not from the client: a
			// live caller should see "server closed", not a bare ctx error.
			err = ErrClosed
		}
		return nil, id, perRequestError(ctx, err)
	}
	return outs, id, nil
}

func cloneAll(ts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}

// Close stops admission, lets admitted requests finish for up to the
// configured drain timeout, then cancels the runs and waits still going,
// which stop at their next node. Idempotent.
func (a *Admission) Close() {
	a.draining.Store(true)
	for deadline := time.Now().Add(a.drain); a.active.Load() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	a.cancel()
	for a.active.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
}

// Stats snapshots the admission counters and the live wait estimate.
func (a *Admission) Stats() AdmissionStats {
	st := admissionCounters(a.pool.metrics)
	st.EstimatedWaitNS = int64(a.EstimatedWait())
	return st
}

// EstimatedWait predicts how long a newly admitted request would take to
// finish: the rounds of pool-wide execution ahead of it (live waiters per
// session, plus its own run) times one request's observed execution
// latency. Zero until a first request has been measured.
func (a *Admission) EstimatedWait() time.Duration {
	return a.estimatedWait(a.pool.Waiting())
}

func (a *Admission) estimatedWait(waiters int) time.Duration {
	ewma := time.Duration(a.ewmaNanos.Load())
	if ewma <= 0 {
		return 0
	}
	return time.Duration(waiters/a.pool.max+1) * ewma
}

// RetryAfterSeconds derives a Retry-After header value from the live
// waiters and the observed execution latency, floored at 1 second.
func (a *Admission) RetryAfterSeconds() int {
	secs := int(math.Ceil(a.EstimatedWait().Seconds()))
	if secs < 1 {
		return 1
	}
	return secs
}

// perRequestError specializes a failure for the request: one whose own
// deadline expired reports ErrDeadline regardless of which step noticed.
func perRequestError(ctx context.Context, err error) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return ErrDeadline
	}
	return err
}

// execFailure classifies a run's result for the circuit breaker: only
// genuine execution failures count, not client-caused aborts or shutdown.
func execFailure(err error) error {
	switch {
	case err == nil,
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, ErrClosed):
		return nil
	}
	return err
}

// observeLatency folds one request's execution time into the EWMA (α = 0.2)
// that backs deadline admission and Retry-After.
func (a *Admission) observeLatency(d time.Duration) {
	old := a.ewmaNanos.Load()
	if old == 0 {
		a.ewmaNanos.Store(int64(d))
		return
	}
	a.ewmaNanos.Store(old + (int64(d)-old)/5)
}
