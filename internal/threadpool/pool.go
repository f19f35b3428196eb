// Package threadpool implements the two multi-threading runtimes compared in
// Section 3.1.2 and Figure 4 of the paper:
//
//   - Pool is NeoCPU's customized thread pool: long-lived workers, static
//     partitioning of the outermost loop into per-worker contiguous ranges,
//     single-producer/single-consumer task handoff to each worker, an
//     atomics-based spin join, and cache-line padding on the shared
//     coordination state to avoid false sharing.
//
//   - OMPPool models an OpenMP parallel-for: a fresh team of workers is
//     launched for every parallel region and joined through a central
//     barrier, paying thread launch and suppression costs per region.
//
// Both satisfy the ops.ParallelFor contract via their ParallelRange methods:
// a region over [0, n) hands each participating thread exactly one contiguous
// [lo, hi) range in a single body call.
package threadpool

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// task is one thread's contiguous slice of a parallel region.
type task struct {
	body   func(lo, hi int)
	lo, hi int
}

// split returns piece t of [0, n) divided evenly into parts contiguous
// pieces (the paper: "we evenly divided the outermost loop of the operation
// into N pieces to assign to N threads"). With parts <= n every piece is
// non-empty and sizes differ by at most one.
func split(n, parts, t int) (lo, hi int) {
	return t * n / parts, (t + 1) * n / parts
}

// rethrow re-raises a region's first recorded panic on the submitter.
func rethrow(pv *panicBox) {
	if pv != nil {
		panic(fmt.Sprintf("threadpool: panic in parallel region: %v", pv.v))
	}
}

// worker is one long-lived pool worker with its own SPSC task queue. The pad
// fields keep each worker's hot state on distinct cache lines, mirroring the
// paper's cache-line padding of the lock-free queues.
type worker struct {
	_     [64]byte
	tasks chan task // SPSC: only the pool submits, only this worker receives
	_     [64]byte
}

// Pool is the customized thread pool. The zero value is not usable; call
// NewPool. The calling goroutine participates in every region as the first
// "thread", so NewPool(n) creates n-1 workers.
type Pool struct {
	workers []*worker
	// pending counts unfinished worker tasks of the current region; the
	// submitter spin-joins on it (C++11-atomics style fork-join).
	pending atomic.Int64
	_       [64]byte
	// panicVal records the first panic observed in a worker so it can be
	// re-raised on the submitting goroutine.
	panicVal atomic.Pointer[panicBox]
	closed   atomic.Bool
	// mu serializes ParallelRange submissions. Acquisition is TryLock-based:
	// a ParallelRange that finds a region already active — a nested call from
	// inside a worker's range, or a concurrent session sharing the pool —
	// runs its whole loop inline on the calling goroutine instead of
	// queueing. Nested submissions therefore can never deadlock (a worker
	// blocking on the region it is part of), and concurrent submitters
	// degrade to serial progress rather than stalls.
	mu sync.Mutex
}

// NewPool creates a pool that runs parallel regions over n threads (the
// caller plus n-1 workers). Widths beyond GOMAXPROCS are allowed — like
// OpenMP, the pool may be oversubscribed; it simply will not speed anything
// up past the physical core count.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{}
	p.workers = make([]*worker, n-1)
	for i := range p.workers {
		w := &worker{tasks: make(chan task, 1)}
		p.workers[i] = w
		go p.run(w)
	}
	return p
}

// Threads returns the region width (including the calling goroutine).
func (p *Pool) Threads() int { return len(p.workers) + 1 }

func (p *Pool) run(w *worker) {
	for t := range w.tasks {
		p.exec(t)
		p.pending.Add(-1)
	}
}

func (p *Pool) exec(t task) {
	defer func() {
		if r := recover(); r != nil {
			p.panicVal.CompareAndSwap(nil, &panicBox{r})
		}
	}()
	t.body(t.lo, t.hi)
}

type panicBox struct{ v any }

// ParallelRange runs body over [0, n), statically partitioned into at most
// Threads() contiguous ranges: each participating thread receives exactly
// one body(lo, hi) call, so per-thread setup (accumulator tiles, scratch)
// happens once per region rather than once per index. It returns when the
// whole range has been processed. A panic in any range is re-raised on the
// caller after the region completes.
//
// ParallelRange is re-entrant: a call made while another region is active on
// the same pool — from inside a worker's own range (nested parallelism), or
// from a different goroutine sharing the pool — executes body(0, n) inline on
// the calling goroutine. One region at a time owns the workers; everyone
// else makes serial progress instead of blocking, so nesting can never
// deadlock and hybrid executors can let concurrent submitters race for the
// pool safely.
func (p *Pool) ParallelRange(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if p.closed.Load() {
		panic("threadpool: ParallelRange on closed Pool")
	}
	parts := min(n, p.Threads())
	// A region already in flight must not be waited for: blocking would
	// deadlock when the caller IS one of that region's goroutines (a kernel
	// invoking a nested region from a worker range), so run inline instead.
	if parts == 1 || !p.mu.TryLock() {
		body(0, n)
		return
	}
	defer p.mu.Unlock()

	// Hand each worker its range through its SPSC queue; the caller executes
	// piece 0 itself.
	p.pending.Add(int64(parts - 1))
	for t := 1; t < parts; t++ {
		lo, hi := split(n, parts, t)
		p.workers[t-1].tasks <- task{body: body, lo: lo, hi: hi}
	}
	lo, hi := split(n, parts, 0)
	p.exec(task{body: body, lo: lo, hi: hi})

	// Spin join: workers signal completion by decrementing the atomic
	// counter; no locks or condition variables on the fast path.
	for spins := 0; p.pending.Load() != 0; spins++ {
		if spins < 64 {
			continue // busy spin
		}
		runtime.Gosched()
	}
	rethrow(p.panicVal.Swap(nil))
}

// ParallelFor is the per-index form of ParallelRange, kept only for the
// frozen benchmark harness; kernels and executors use ParallelRange.
func (p *Pool) ParallelFor(n int, body func(i int)) {
	p.ParallelRange(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// Close shuts down the workers. The pool must not be used afterwards.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	for _, w := range p.workers {
		close(w.tasks)
	}
}

// OMPPool models OpenMP's parallel-for execution: every region forks a fresh
// team of goroutines and joins them through a central WaitGroup barrier.
// Static scheduling with one contiguous chunk per thread matches the
// environment-variable configuration used in the paper's comparison
// (Section 4.2.4).
type OMPPool struct {
	threads int
	closed  atomic.Bool
}

// Close marks the runtime shut down. OMP-style teams are forked per region,
// so there are no long-lived workers to reap, but Close gives OMPPool the
// same lifecycle contract as Pool: owners release both uniformly and
// use-after-close is caught instead of silently forking new teams.
func (o *OMPPool) Close() {
	o.closed.Store(true)
}

// NewOMPPool creates an OpenMP-style runtime with the given team width.
func NewOMPPool(n int) *OMPPool {
	if n < 1 {
		n = 1
	}
	return &OMPPool{threads: n}
}

// Threads returns the team width.
func (o *OMPPool) Threads() int { return o.threads }

// ParallelRange runs body over [0, n) with a freshly launched team, one
// contiguous range per member, paying the fork/join overhead that the custom
// pool avoids. Like Pool.ParallelRange, a panic in any team member is
// re-raised on the caller after the region completes — a kernel panic must
// reach the submitting goroutine's recovery boundary, never kill the process
// from an anonymous worker.
func (o *OMPPool) ParallelRange(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if o.closed.Load() {
		panic("threadpool: ParallelRange on closed OMPPool")
	}
	parts := min(n, o.threads)
	if parts == 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	var panicked atomic.Pointer[panicBox]
	for t := 0; t < parts; t++ {
		lo, hi := split(n, parts, t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &panicBox{r})
				}
			}()
			body(lo, hi)
		}()
	}
	wg.Wait()
	rethrow(panicked.Swap(nil))
}
