// Package core is NeoCPU-Go's compilation pipeline: it takes a model graph
// and a CPU target, runs the graph-level optimizations of Section 3
// (inference simplification, operator fusion, layout planning with transform
// elimination, and the two-stage optimization-scheme search), pre-transforms
// the convolution weights, and produces a standalone executable Module.
//
// The four optimization levels correspond to the rows of Table 3:
//
//	OptNone          — plain NCHW convolutions (baseline).
//	OptLayout        — NCHW[x]c convolutions with library-style transforms
//	                   around every CONV ("Layout Opt.").
//	OptTransformElim — the blocked layout flows through the graph; uniform x
//	                   ("Transform Elim.").
//	OptGlobalSearch  — per-CONV schemes from local search combined by the
//	                   DP/PBQP global search ("Global Search").
package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/ops"
	"repro/internal/schedule"
	"repro/internal/search"
	"repro/internal/tensor"
	"repro/internal/threadpool"
)

// OptLevel selects how far the layout optimizations go (Table 3).
type OptLevel int

const (
	// OptNone executes every convolution in NCHW.
	OptNone OptLevel = iota
	// OptLayout blocks each convolution locally, paying per-CONV transforms.
	OptLayout
	// OptTransformElim keeps one blocked layout flowing through the graph.
	OptTransformElim
	// OptGlobalSearch adds the per-CONV scheme search of Section 3.3.
	OptGlobalSearch
)

func (l OptLevel) String() string {
	switch l {
	case OptNone:
		return "baseline-nchw"
	case OptLayout:
		return "layout-opt"
	case OptTransformElim:
		return "transform-elim"
	case OptGlobalSearch:
		return "global-search"
	}
	return fmt.Sprintf("opt(%d)", int(l))
}

// Options configures compilation.
type Options struct {
	// Level is the optimization level; the default (zero value) is OptNone.
	Level OptLevel
	// Threads is the execution width; 0 means the target's core count
	// (Target.Cores, 18 for intel-skylake), which is used as is: the host's
	// cores and GOMAXPROCS do not cap it. It alone picks the runtime: at 1
	// every parallel region runs serially on the caller, and above 1 on a
	// thread pool of that width (SharedPool, when set, is borrowed instead
	// of building one).
	Threads int
	// Deprecated: ignored; Threads and SharedPool pick the runtime.
	Backend machine.ThreadBackend
	// DisableFusion keeps ReLU/add as standalone operators (ablation).
	DisableFusion bool
	// DisableBNFold keeps BatchNorm as a standalone runtime operator
	// instead of folding it into the preceding convolution's parameters.
	// Engine simulators use this to model frameworks that execute BN
	// separately.
	DisableBNFold bool
	// NoPrepack skips the compile-time weight packing. The module can then
	// only PredictLatency, not Run; latency-simulation harnesses use this to
	// avoid materializing hundreds of megabytes of packed VGG weights.
	NoPrepack bool
	// DisableWinograd removes the Winograd algorithm from the global
	// search's candidate space, pinning every convolution to the direct
	// template. Winograd's fp32 transforms accumulate slightly different
	// rounding than direct summation; callers needing bit-compatible direct
	// results can opt out here.
	DisableWinograd bool
	// SharedPool, when non-nil, makes the module execute on the caller's
	// pool instead of constructing its own, whatever Threads says.
	// Multi-model serving uses this so N loaded models contend for one set
	// of worker goroutines rather than N×threads of them. The pool is
	// borrowed: Module.Close leaves it running for its owner.
	SharedPool *threadpool.Pool
	// Search configures the global search at OptGlobalSearch.
	Search search.Options
}

// ErrNoWeights is the typed cause for an executable compile (one without
// NoPrepack) of a graph whose convolution or dense weights are shape-only:
// a graph built with shape-only parameters, or a graph already compiled
// once, whose packed convolutions kept only their weights' shapes.
var ErrNoWeights = errors.New("core: graph has no weights to execute")

// checkWeights fails with ErrNoWeights, naming the first such node, unless
// every convolution and dense node of g carries its whole weight payload.
// Compile and CompileWithPlan call it before any pass rewrites the graph.
func checkWeights(g *graph.Graph) error {
	for _, n := range g.Nodes() {
		if (n.IsConv() || n.Op == graph.OpDense) && n.Weight != nil && len(n.Weight.Data) != n.Weight.NumElements() {
			return fmt.Errorf("%w: node %q has a shape-only %v weight (compile a freshly built graph, or set NoPrepack)", ErrNoWeights, n.Name, n.Weight.Shape)
		}
	}
	return nil
}

// Compile lowers the graph for the target. It takes ownership of g: passes
// rewrite it in place, and an executable compile keeps only the packed copy
// of each NCHW[x]c convolution's weight, so g is compiled once. Executable
// modules (without NoPrepack) construct their thread pool here, so they must
// be Closed when no longer needed. An executable compile of a graph without
// weights fails with ErrNoWeights.
func Compile(g *graph.Graph, t *machine.Target, opts Options) (*Module, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if !opts.NoPrepack {
		if err := checkWeights(g); err != nil {
			return nil, err
		}
	}
	if err := graph.RemoveDropout(g); err != nil {
		return nil, fmt.Errorf("core: simplify: %w", err)
	}
	if !opts.DisableBNFold {
		if err := graph.FoldBatchNorms(g); err != nil {
			return nil, fmt.Errorf("core: fold batch norm: %w", err)
		}
	}
	if !opts.DisableFusion {
		if err := graph.FuseOps(g); err != nil {
			return nil, fmt.Errorf("core: fuse: %w", err)
		}
	}

	// The hand-picked schedule of Table 3 rows 2-3: a 16-wide register tile
	// everywhere (clamped so the accumulators plus the kernel and broadcast
	// registers fit the architectural register file), mirroring the paper's
	// "we make x a constant number (e.g. 16) across all CONVs". The global
	// search of row 4 beats it by picking reg_n and the block pair per
	// workload (tail waste, register pressure and FMA-latency hiding differ
	// across feature-map sizes).
	defaultRegN := 16
	if defaultRegN+2 > t.NumVecRegs {
		defaultRegN = t.NumVecRegs - 2
	}

	var plan graph.LayoutPlan
	var searchOutcome *search.Outcome
	eliminate := true
	switch opts.Level {
	case OptNone:
		plan = graph.NCHWPlan(g)
	case OptLayout:
		plan = graph.UniformPlan(g, t.VectorLanes, defaultRegN)
		eliminate = false
	case OptTransformElim:
		plan = graph.UniformPlan(g, t.VectorLanes, defaultRegN)
	case OptGlobalSearch:
		sOpts := opts.Search
		if opts.DisableWinograd {
			sOpts.DisableWinograd = true
		}
		if sOpts.Threads <= 0 {
			sOpts.Threads = opts.Threads
			if sOpts.Threads <= 0 {
				sOpts.Threads = t.Cores
			}
			sOpts.Backend = runtimeBackend(sOpts.Threads)
		}
		if sOpts.DB == nil {
			sOpts.DB = SharedScheduleDB(t, sOpts.Threads, sOpts.Backend)
		}
		out, err := search.GlobalSearch(g, t, sOpts)
		if err != nil {
			return nil, fmt.Errorf("core: global search: %w", err)
		}
		plan = out.Plan
		searchOutcome = out
	default:
		return nil, fmt.Errorf("core: unknown optimization level %d", opts.Level)
	}
	if err := graph.AlterOpLayout(g, plan, eliminate); err != nil {
		return nil, fmt.Errorf("core: alter op layout: %w", err)
	}

	return finalizeModule(g, t, opts.Level, searchOutcome, opts), nil
}

// sharedDBs memoizes local-search results across compilations in one
// process, the way the paper's schedule database avoids repeating searches
// for the same convolution workload across models. One database per
// (target, execution config): schedule quality depends on the thread count
// the plan is optimized for.
var (
	sharedDBMu sync.Mutex
	sharedDBs  = map[string]*schedule.DB{}
)

// SharedScheduleDB returns the process-wide schedule database for one
// execution configuration.
func SharedScheduleDB(t *machine.Target, threads int, backend machine.ThreadBackend) *schedule.DB {
	key := fmt.Sprintf("%s/%d/%v", t.Name, threads, backend)
	sharedDBMu.Lock()
	defer sharedDBMu.Unlock()
	db, ok := sharedDBs[key]
	if !ok {
		db = schedule.NewDB()
		sharedDBs[key] = db
	}
	return db
}

// newModule constructs the module shell shared by the compile and
// bundle-load paths: execution-width defaults and the pass-pipeline record,
// with no parameters installed and no runtime yet.
func newModule(g *graph.Graph, t *machine.Target, level OptLevel, searchOutcome *search.Outcome, opts Options) *Module {
	m := &Module{
		Graph:         g,
		Target:        t,
		Level:         level,
		Search:        searchOutcome,
		disableFusion: opts.DisableFusion,
		disableBNFold: opts.DisableBNFold,
		threads:       opts.Threads,
		packed:        map[*graph.Node]*tensor.Tensor{},
		anchors:       map[*graph.Node]*tensor.Tensor{},
	}
	if m.threads <= 0 {
		m.threads = t.Cores
	}
	return m
}

// runtimeBackend names, for the cost model, the runtime a module of the
// given width executes on: the thread pool above one thread, else serial.
func runtimeBackend(threads int) machine.ThreadBackend {
	if threads > 1 {
		return machine.BackendPool
	}
	return machine.BackendSerial
}

// finishRuntime performs the execution tail shared by compilation and bundle
// loading, after the module's parameters are in place: SSD anchor
// pre-computation, the program/slot tables, the execution plan, and the
// threading runtime. Prediction-only modules skip the plan and the runtime.
func (m *Module) finishRuntime(opts Options) {
	m.program = m.Graph.Topo()
	m.slot = make(map[*graph.Node]int, len(m.program))
	for i, n := range m.program {
		m.slot[n] = i
		// Pre-compute SSD anchors (they depend only on feature-map shapes).
		if n.Op == graph.OpSSDHead {
			m.anchors[n] = buildAnchors(n)
		}
	}
	if opts.NoPrepack {
		return
	}
	// Compile the execution plan: liveness-packed arena slots over the
	// program's dependency levels.
	m.plan = buildExecPlan(m.Graph, m.program)
	// Construct the threading runtime now rather than lazily on first Run:
	// concurrent Sessions share one module, and a lazy first-use init would
	// race.
	switch {
	case opts.SharedPool != nil:
		m.pool = opts.SharedPool
		m.sharedPool = true
	case m.threads > 1:
		m.pool = threadpool.NewPool(m.threads)
	}
}

// finalizeModule performs the compilation tail shared by Compile and
// CompileWithPlan: module construction, execution-width defaults, the
// runtime (finishRuntime), then weight pre-packing on that runtime.
func finalizeModule(g *graph.Graph, t *machine.Target, level OptLevel, searchOutcome *search.Outcome, opts Options) *Module {
	m := newModule(g, t, level, searchOutcome, opts)
	if opts.NoPrepack {
		m.noPrepack = true
		// Prediction-only module: release the weight payloads (shapes are
		// all the cost model reads) so cached modules stay small.
		for _, n := range g.Nodes() {
			if n.Weight != nil {
				n.Weight = shapeOnly(n.Weight)
			}
		}
	}
	m.finishRuntime(opts)
	if !opts.NoPrepack {
		m.packWeights()
	}
	return m
}

// packWeights pre-transforms every NCHW[x]c convolution's weight (Figure 2:
// the kernel layout is invariant, so the transform is paid once here, never
// at inference), each transform running on the module's own pool. It then
// releases the raw weight: the kernels read only the packed copy, so the
// node keeps its weight's shape and layout without the payload. Dense nodes
// and NCHW-scheduled convolutions execute from n.Weight and keep it.
func (m *Module) packWeights() {
	pf := m.parallelFor()
	for _, n := range m.Graph.Convs() {
		if n.Sched.Layout.Kind != tensor.LayoutNCHWc {
			continue
		}
		if n.Sched.Algorithm == machine.AlgoWinograd {
			// U = G g Gᵀ, packed for the blocked kernel — the winograd
			// analog of the compile-time weight pre-packing.
			m.packed[n] = ops.WinogradWeightTransformNCHWc(n.Weight, n.Sched.ICBlock, n.Sched.OCBlock, pf)
		} else {
			// Depthwise weights are logically (C, 1, KH, KW): their packed
			// form splits only the output channels, so the input-channel
			// block of the packing is 1 regardless of the schedule's shared
			// activation block (see ops.Conv2DDepthwiseNCHWc).
			wIC := n.Sched.ICBlock
			if graph.ConvWorkload(n).Depthwise() {
				wIC = 1
			}
			m.packed[n] = tensor.PackWeights(n.Weight, wIC, n.Sched.OCBlock)
		}
		n.Weight = shapeOnly(n.Weight)
	}
}

// shapeOnly returns a payload-free tensor with w's shape and layout.
func shapeOnly(w *tensor.Tensor) *tensor.Tensor {
	return &tensor.Tensor{Shape: w.Shape, Layout: w.Layout}
}
