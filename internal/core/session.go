package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// Session is a reusable execution context over a compiled Module. It
// materializes the module's compile-time execution plan: a small set of
// shared, size-classed arena slots (assigned by liveness analysis, so
// simultaneously-live values never alias) backs every operator's output,
// padding and transform scratch — allocated once at session creation and
// reused across calls, so steady-state Run performs no per-node allocation
// and the arena is several-fold smaller than one buffer per node.
//
// A Session is NOT safe for concurrent use: it is a single execution lane.
// The Module it came from IS safe to share — weights, packed parameters and
// the threading runtime are finalized at compile time and only read here —
// so concurrent inference over one model is one Session per goroutine:
//
//	m, _ := core.Compile(g, target, opts)
//	for i := 0; i < workers; i++ {
//		go func() {
//			s, _ := m.NewSession()
//			for job := range jobs {
//				outs, _ := s.Run(ctx, job)
//				...
//			}
//		}()
//	}
//
// Threading note: a session runs its nodes one at a time, and each kernel
// splits its outermost loop across the module's pool. With BackendPool (or
// BackendOMP) that pool is shared by every session of the module (and, with
// Options.SharedPool, by every module given the same pool). The pool runs
// one region at a time, but a submitter that finds the pool busy is never
// blocked: threadpool.Pool's re-entrant ParallelRange degrades it to an
// inline serial loop on its own goroutine. A wide pool therefore minimizes
// single-request latency while concurrent sessions still make serial
// progress; throughput-oriented servers should still compile with
// Threads=1/BackendSerial so N sessions genuinely occupy N cores with no
// contention for the pool at all.
type Session struct {
	m *Module
	// slotData holds one backing array per plan slot; bufs holds the
	// per-node tensor views over them.
	slotData [][]float32
	vals     []*tensor.Tensor
	bufs     []nodeBuffers
	outs     []*tensor.Tensor

	// Work counters. The session itself is a single execution lane, but a
	// serving pool reads these concurrently with runs (stats endpoints,
	// sizing heuristics), so they are atomics.
	runs      atomic.Uint64
	items     atomic.Uint64
	busyNanos atomic.Int64

	// corrupt marks a session whose execution panicked: the arena may hold
	// partial writes, so the session refuses further runs (see Corrupted).
	corrupt atomic.Bool
}

// SessionStats counts the work one session has executed. Runs counts Run
// and RunBatch calls, including failed or cancelled ones; Items counts only
// completed inference items (a successful Run is one item, a RunBatch adds
// one per completed input); Busy is the cumulative wall-clock spent inside
// Run/RunBatch, the pool's utilization signal.
type SessionStats struct {
	Runs  uint64
	Items uint64
	Busy  time.Duration
}

// Stats returns the session's work counters. Safe to call concurrently with
// runs on the session's own goroutine.
func (s *Session) Stats() SessionStats {
	return SessionStats{
		Runs:  s.runs.Load(),
		Items: s.items.Load(),
		Busy:  time.Duration(s.busyNanos.Load()),
	}
}

// ArenaBytes reports the total size of the session's preallocated arena —
// the planned shared slots, each counted once. Serving layers use it to
// budget pool growth and to bound acceptable per-request allocation
// (steady-state request handling should allocate well under one arena's
// worth).
func (s *Session) ArenaBytes() int {
	return s.m.plan.stats.ArenaBytes
}

// PlanStats returns the compile-time execution-plan summary this session
// materializes: slot packing, arena footprint and dependency levels.
func (s *Session) PlanStats() PlanStats { return s.m.PlanStats() }

// BatchError reports that a RunBatch stopped before executing every input.
// Completed counts the items that finished: the batch results returned
// alongside the error hold exactly those entries, in input order. Err is the
// cause (a ctx error for cancellation, or the failing item's execution
// error) and is exposed through Unwrap for errors.Is/As.
type BatchError struct {
	Completed int
	Err       error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("core: batch stopped after %d item(s): %v", e.Completed, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// NewSession materializes the module's execution plan into a freshly
// allocated arena. Prediction-only (NoPrepack) modules cannot execute and
// return an error.
func (m *Module) NewSession() (*Session, error) {
	if m.noPrepack {
		return nil, fmt.Errorf("core: module was compiled with NoPrepack (prediction-only); recompile without it to execute")
	}
	p := m.plan
	s := &Session{
		m:        m,
		slotData: make([][]float32, len(p.slots)),
		vals:     make([]*tensor.Tensor, len(m.program)),
		bufs:     make([]nodeBuffers, len(m.program)),
		outs:     make([]*tensor.Tensor, len(m.Graph.Outputs)),
	}
	for i, sl := range p.slots {
		// Zero-filled by make: pad slots rely on their border staying zero
		// (kernels only ever write the interior, and a pad slot is shared
		// exclusively between identical geometries).
		s.slotData[i] = make([]float32, sl.elems)
	}
	view := func(b planBuf) *tensor.Tensor {
		if b.slot < 0 {
			return nil
		}
		return &tensor.Tensor{
			Shape:  append([]int(nil), b.dims...),
			Data:   s.slotData[b.slot][:b.elems],
			Layout: b.layout,
		}
	}
	for i, st := range p.steps {
		s.bufs[i] = nodeBuffers{
			out:     view(st.out),
			pad:     view(st.pad),
			wino:    view(st.wino),
			scratch: view(st.scratch),
		}
		if st.concat > 0 {
			s.bufs[i].concat = make([]*tensor.Tensor, st.concat)
		}
	}
	return s, nil
}

// execStep executes one program node into its planned buffers.
func (s *Session) execStep(i int, input *tensor.Tensor, pf ops.ParallelFor) error {
	n := s.m.program[i]
	out, err := s.m.exec(n, s.vals, input, pf, &s.bufs[i])
	if err != nil {
		return fmt.Errorf("core: executing %v: %w", n, err)
	}
	s.vals[i] = out
	return nil
}

// run executes one inference: the plan's nodes in level order, one at a
// time, each kernel handed pf and so the whole pool. Level order is required,
// not program order: the planner's slot lifetimes are level-granular. Ctx is
// polled before every node, so cancellation takes effect mid-inference.
func (s *Session) run(ctx context.Context, input *tensor.Tensor, pf ops.ParallelFor) error {
	for _, level := range s.m.plan.levels {
		for _, i := range level {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if err := s.execStep(i, input, pf); err != nil {
				return err
			}
		}
	}
	return nil
}

// safeRun is the session-run boundary: a quarantined session refuses to
// execute, the fault-injection site fires (no-op unless a test armed it),
// and a panic anywhere in the kernels or executor is recovered into a typed
// *ExecPanicError instead of crashing the process. Both threading runtimes
// re-raise worker panics on the submitting goroutine, so this boundary
// catches parallel-region panics too.
func (s *Session) safeRun(ctx context.Context, input *tensor.Tensor, pf ops.ParallelFor) (err error) {
	if s.corrupt.Load() {
		return fmt.Errorf("core: session for %q is quarantined after a panic; create a new session", s.m.Graph.Name)
	}
	defer s.recoverExec(&err)
	if err := faults.Fire(faults.SiteSessionRun, s.m.Graph.Name); err != nil {
		return err
	}
	return s.run(ctx, input, pf)
}

// Run executes the model on one NCHW input, reusing the session arena. The
// returned tensors are views into the arena's pinned output slots: they are
// valid until the next Run/RunBatch on this session, and must be Clone()d to
// outlive it.
func (s *Session) Run(ctx context.Context, input *tensor.Tensor) ([]*tensor.Tensor, error) {
	if err := s.m.checkInput(input); err != nil {
		return nil, err
	}
	start := time.Now()
	defer func() {
		s.busyNanos.Add(int64(time.Since(start)))
		s.runs.Add(1)
	}()
	if err := s.safeRun(ctx, input, s.m.parallelFor()); err != nil {
		return nil, err
	}
	for i, o := range s.m.Graph.Outputs {
		s.outs[i] = s.vals[s.m.slot[o]]
	}
	s.items.Add(1)
	return s.outs, nil
}

// RunBatch executes the model once per input, amortizing validation and
// dispatch setup across the batch. Unlike Run, the returned tensors are
// deep copies (the arena is reused between batch items), so they remain
// valid indefinitely.
//
// Ctx is checked between batch items as well as between graph nodes. When a
// batch stops early — cancellation, or one item failing — RunBatch returns
// the results of the items that completed together with a *BatchError whose
// Completed field counts them: results[:Completed] are valid, fully
// executed outputs. errors.Is still matches the underlying cause (e.g.
// context.Canceled) through BatchError.Unwrap.
func (s *Session) RunBatch(ctx context.Context, inputs []*tensor.Tensor) ([][]*tensor.Tensor, error) {
	for i, in := range inputs {
		if err := s.m.checkInput(in); err != nil {
			return nil, fmt.Errorf("core: batch input %d: %w", i, err)
		}
	}
	pf := s.m.parallelFor()
	start := time.Now()
	defer func() {
		s.busyNanos.Add(int64(time.Since(start)))
		s.runs.Add(1)
	}()
	results := make([][]*tensor.Tensor, 0, len(inputs))
	for i, in := range inputs {
		// The between-items check: a cancellation that lands after item i-1
		// finished must not run item i to completion.
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return results, &BatchError{Completed: i, Err: err}
			}
		}
		if err := s.safeRun(ctx, in, pf); err != nil {
			return results, &BatchError{Completed: i, Err: fmt.Errorf("core: batch input %d: %w", i, err)}
		}
		outs := make([]*tensor.Tensor, len(s.m.Graph.Outputs))
		for j, o := range s.m.Graph.Outputs {
			outs[j] = s.vals[s.m.slot[o]].Clone()
		}
		results = append(results, outs)
		s.items.Add(1)
	}
	return results, nil
}

// Module returns the compiled module this session executes.
func (s *Session) Module() *Module { return s.m }
