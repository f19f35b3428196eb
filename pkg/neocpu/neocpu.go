// Package neocpu is the public API of NeoCPU-Go, the reproduction of
// "Optimizing CNN Model Inference on CPUs" (Liu et al., USENIX ATC'19).
//
// It wraps the internal compilation pipeline (graph optimization, layout
// planning, optimization-scheme search, weight pre-packing) behind a single
// entry point with functional options, and exposes the concurrency-safe
// execution model of the compiled artifact:
//
//	engine, err := neocpu.Compile("resnet-50",
//		neocpu.WithTarget("intel-skylake"),
//		neocpu.WithOptLevel(neocpu.LevelGlobalSearch),
//		neocpu.WithThreads(8),
//	)
//	if err != nil { ... }
//	defer engine.Close()
//
//	sess, err := engine.NewSession()
//	outs, err := sess.Run(ctx, input)
//
// An Engine is the paper's "standalone module with minimal size": weights,
// program and threading runtime are finalized at compile time, so one Engine
// can serve many goroutines — each goroutine creates its own Session, whose
// preallocated tensor arena makes steady-state inference allocation-free.
// One-shot callers can use Engine.Run directly.
//
// Model names come from the model registry: the paper's evaluation suite
// (resnet-18/.../152, vgg-11/.../19, densenet-121/.../201, inception-v3,
// ssd-resnet-50) plus mobilenet-v1, the depthwise-separable extension.
// Custom graphs built with internal/graph compile through CompileGraph.
package neocpu

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/search"
	"repro/internal/tensor"
)

// Engine is a compiled model ready for execution (or, WithPredictOnly, for
// latency prediction). Engines are safe for concurrent use; see NewSession.
//
// Executable engines own a thread pool constructed at compile time: call
// Close when done with one, or its worker goroutines live until process
// exit. Predict-only engines hold no runtime and need no Close.
type Engine struct {
	mod         *core.Module
	statsBefore graph.Stats
	statsAfter  graph.Stats
}

// Profile is the per-operator timing breakdown of one profiled inference.
type Profile = core.Profile

// PlanStats summarizes an engine's compile-time execution plan: how many
// buffers the liveness-based memory planner packed into how many shared
// arena slots (ArenaBytes vs the naive one-buffer-per-node
// NaiveArenaBytes), and how many dependency levels the executor walks in
// order (Levels). InterOpLevels and HybridLevels are always zero and will be
// removed.
type PlanStats = core.PlanStats

// SearchStats reports what the global optimization-scheme search did.
type SearchStats struct {
	// Algorithm is "dp" or "pbqp".
	Algorithm string
	// Vars and Edges size the search problem (convolutions and layout-coupled
	// pairs); States counts candidate states explored.
	Vars, Edges, States int
	// Elapsed is the search wall-clock time.
	Elapsed time.Duration
}

// Compile builds and compiles a registry model for a CPU target.
func Compile(model string, opts ...Option) (*Engine, error) {
	cfg := newConfig(opts)
	if cfg.err != nil {
		return nil, cfg.err
	}
	spec, err := models.Get(model)
	if err != nil {
		return nil, fmt.Errorf("%w: %q (known: %s)", ErrUnknownModel, model, strings.Join(models.Names(), ", "))
	}
	var g *graph.Graph
	if cfg.predictOnly {
		// Shape-only graphs support every pass and the latency predictor
		// without materializing (potentially hundreds of MB of) weights.
		g, err = models.BuildShapeOnly(model)
	} else {
		g, err = models.Build(model, cfg.seed)
	}
	if err != nil {
		return nil, err
	}
	if cfg.search == nil {
		cfg.search = &SearchOptions{}
	}
	if spec.UsePBQP {
		// Models the paper solves approximately (SSD's graph shape) keep the
		// PBQP solver even when the caller supplies its own search options.
		cfg.search.ForcePBQP = true
	}
	return compile(g, cfg)
}

// CompileGraph compiles a custom computation graph built with
// internal/graph. The graph is rewritten in place by the optimization
// passes, so a graph is compiled once: after an executable compile its
// packed convolutions' weights are shape-only (the engine keeps only the
// packed copy). Compiling a graph whose weights are shape-only — built
// shape-only, or already compiled — fails with core.ErrNoWeights unless
// WithPredictOnly is set.
func CompileGraph(g *graph.Graph, opts ...Option) (*Engine, error) {
	cfg := newConfig(opts)
	if cfg.err != nil {
		return nil, cfg.err
	}
	return compile(g, cfg)
}

func compile(g *graph.Graph, cfg *config) (*Engine, error) {
	pre := g.ComputeStats()
	copts := core.Options{
		Level:           cfg.level.core(),
		Threads:         cfg.threads,
		DisableWinograd: cfg.noWinograd,
		NoPrepack:       cfg.predictOnly,
	}
	// One search default for both entry points: Compile and CompileGraph
	// explore the same candidate space for identical graphs.
	searchOpts := SearchOptions{}
	if cfg.search != nil {
		searchOpts = *cfg.search
	}
	if searchOpts.MaxCands <= 0 {
		searchOpts.MaxCands = 8
	}
	copts.Search = search.Options{MaxCands: searchOpts.MaxCands, ForcePBQP: searchOpts.ForcePBQP}
	mod, err := core.Compile(g, cfg.target, copts)
	if err != nil {
		return nil, err
	}
	return &Engine{mod: mod, statsBefore: pre, statsAfter: g.ComputeStats()}, nil
}

// Run executes one inference, allocating every intermediate. For repeated or
// concurrent inference prefer NewSession.
func (e *Engine) Run(input *tensor.Tensor) ([]*tensor.Tensor, error) {
	if e.mod.PredictOnly() {
		return nil, ErrPredictOnly
	}
	return e.mod.Run(input)
}

// RunProfiled executes one inference while timing every operator.
func (e *Engine) RunProfiled(input *tensor.Tensor) ([]*tensor.Tensor, *Profile, error) {
	if e.mod.PredictOnly() {
		return nil, nil, ErrPredictOnly
	}
	return e.mod.RunProfiled(input)
}

// NewSession returns an execution context with a preallocated per-node
// tensor arena. Sessions are cheap enough to create per worker and are NOT
// safe for concurrent use themselves; the Engine is — create one Session per
// goroutine.
//
// Pick the threading configuration for the workload: WithThreads(N) with
// N > 1 minimizes the latency of each request, but the engine's pool runs
// one kernel region at a time, so concurrent sessions do not add
// throughput. For throughput-oriented serving compile with WithThreads(1),
// which runs serially with no pool — each session then occupies exactly one
// core and N sessions scale to N cores.
func (e *Engine) NewSession() (*Session, error) {
	if e.mod.PredictOnly() {
		return nil, ErrPredictOnly
	}
	s, err := e.mod.NewSession()
	if err != nil {
		return nil, err
	}
	return &Session{s: s}, nil
}

// PlanStats returns the engine's compile-time execution-plan summary. The
// zero value is returned for predict-only engines, which carry no plan.
func (e *Engine) PlanStats() PlanStats { return e.mod.PlanStats() }

// PredictLatency returns the predicted end-to-end seconds for one inference
// on the engine's (modeled) target hardware with its configured execution
// width — the simulated measurement used to regenerate the paper's tables.
func (e *Engine) PredictLatency() float64 {
	return e.mod.PredictLatency(core.PredictConfig{})
}

// Close releases the threading runtime. Outstanding sessions remain usable
// but execute serially afterwards; Close must not race with in-flight runs.
func (e *Engine) Close() { e.mod.Close() }

// Level returns the optimization level the engine was compiled at.
func (e *Engine) Level() Level {
	switch e.mod.Level {
	case core.OptNone:
		return LevelBaseline
	case core.OptLayout:
		return LevelLayout
	case core.OptTransformElim:
		return LevelTransformElim
	default:
		return LevelGlobalSearch
	}
}

// Target returns the machine descriptor the engine was compiled for.
func (e *Engine) Target() *Target { return e.mod.Target }

// Threads returns the configured execution width.
func (e *Engine) Threads() int { return e.mod.Threads() }

// PredictOnly reports whether the engine was compiled WithPredictOnly.
func (e *Engine) PredictOnly() bool { return e.mod.PredictOnly() }

// InputShape returns the expected NCHW input dimensions.
func (e *Engine) InputShape() []int {
	return append([]int(nil), e.mod.Graph.Input.OutShape.Dims...)
}

// NewInput allocates a zero-filled NCHW input tensor of the right shape.
func (e *Engine) NewInput() *tensor.Tensor {
	return tensor.New(tensor.NCHW(), e.InputShape()...)
}

// Graph returns the compiled (pass-rewritten) computation graph. Its packed
// convolutions' weights are shape-only after an executable compile (the
// engine executes from the packed copy), so it serves for inspection, not
// for another compile.
func (e *Engine) Graph() *graph.Graph { return e.mod.Graph }

// Stats returns the graph statistics before and after the optimization
// passes (node counts, convolutions, FLOPs, parameters, transforms).
func (e *Engine) Stats() (before, after graph.Stats) {
	return e.statsBefore, e.statsAfter
}

// TransformCount reports how many non-free layout transforms the compiled
// program executes per inference (the quantity Section 3.2 minimizes).
func (e *Engine) TransformCount() int { return e.mod.TransformCount() }

// SearchStats reports the global-search diagnostics; ok is false unless the
// engine was compiled at LevelGlobalSearch.
func (e *Engine) SearchStats() (stats SearchStats, ok bool) {
	s := e.mod.Search
	if s == nil {
		return SearchStats{}, false
	}
	return SearchStats{
		Algorithm: string(s.Algorithm),
		Vars:      s.Vars,
		Edges:     s.Edges,
		States:    s.States,
		Elapsed:   s.Elapsed,
	}, true
}

// SavePlan serializes the chosen per-convolution optimization schemes as
// JSON, re-appliable with the internal core.CompileWithPlan flow.
func (e *Engine) SavePlan(w io.Writer) error { return e.mod.SavePlan(w) }

// SaveBundle serializes the engine as a self-contained deployable artifact:
// execution plan, packed weights, graph and I/O metadata, and the target
// signature. LoadBundle reconstructs a bit-identical engine from it without
// searching or packing — the compile-once/deploy-everywhere flow of the
// paper's serving setting. Predict-only engines carry no packed weights and
// cannot be bundled.
func (e *Engine) SaveBundle(w io.Writer) error {
	if e.mod.PredictOnly() {
		return ErrPredictOnly
	}
	return e.mod.SaveBundle(w)
}

// LoadBundle deserializes an engine from a bundle written by SaveBundle. No
// optimization search or weight packing runs: the recorded schemes are
// re-applied to the rebuilt graph structure and the packed weights are
// installed directly, so loading is fast and the loaded engine computes
// bit-identical results to the engine that produced the bundle.
//
// Only the runtime option applies (WithThreads); the model,
// optimization level and target are recorded in the bundle itself,
// so compile-time options (WithOptLevel, WithTarget, WithSeed,
// WithSearch) have no effect. A bundle produced for a different
// target signature fails with core.ErrBundleTarget; a corrupted or stale
// bundle fails with artifact.ErrInvalidArtifact, and a quantized bundle
// saved by an earlier int8-capable build with artifact.ErrInt8Bundle.
func LoadBundle(r io.Reader, opts ...Option) (*Engine, error) {
	cfg := newConfig(opts)
	if cfg.err != nil {
		return nil, cfg.err
	}
	mod, err := core.LoadBundle(r, models.ResolveGraph, core.Options{Threads: cfg.threads})
	if err != nil {
		return nil, err
	}
	stats := mod.Graph.ComputeStats()
	return &Engine{mod: mod, statsBefore: stats, statsAfter: stats}, nil
}

// Session is a reusable, single-lane execution context over an Engine. Its
// preallocated arena makes steady-state Run allocation-free. Create one per
// goroutine; the underlying Engine is shared safely.
type Session struct {
	s *core.Session
}

// Run executes one inference. The returned tensors alias the session arena:
// they are valid until the next Run on this session and must be Clone()d to
// outlive it. Ctx is checked as execution proceeds through the
// graph, so cancellation takes effect mid-inference.
func (s *Session) Run(ctx context.Context, input *tensor.Tensor) ([]*tensor.Tensor, error) {
	return s.s.Run(ctx, input)
}

// PlanStats returns the compile-time execution-plan summary this session
// materializes: arena slot packing and dependency levels.
func (s *Session) PlanStats() PlanStats { return s.s.PlanStats() }

// ArenaBytes reports the session's preallocated arena footprint — the
// planned shared slots, each counted once.
func (s *Session) ArenaBytes() int { return s.s.ArenaBytes() }
