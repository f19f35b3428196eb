package neocpu

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
)

// Typed errors. All failures returned by this package wrap one of these, so
// callers can branch with errors.Is instead of string matching.
var (
	// ErrUnknownModel means the model name is not in the registry.
	ErrUnknownModel = errors.New("neocpu: unknown model")
	// ErrUnknownTarget means the CPU target name is not a preset.
	ErrUnknownTarget = errors.New("neocpu: unknown target")
	// ErrUnknownLevel means the optimization-level name did not parse.
	ErrUnknownLevel = errors.New("neocpu: unknown optimization level")
	// ErrPredictOnly means the engine was compiled WithPredictOnly and was
	// asked to execute.
	ErrPredictOnly = errors.New("neocpu: engine is predict-only (compiled WithPredictOnly)")
	// ErrBadOption means an option carried an invalid value.
	ErrBadOption = errors.New("neocpu: invalid option")
)

// Target describes a CPU platform (cores, SIMD width, cache hierarchy). It is
// the machine descriptor the schedule search optimizes for; presets for the
// paper's three evaluation platforms and the two INT8 extension platforms are
// available by name through ParseTarget.
type Target = machine.Target

// ParseTarget resolves a preset target name ("intel-skylake", "amd-epyc",
// "arm-cortex-a72", "intel-cascadelake", "arm-graviton2").
func ParseTarget(name string) (*Target, error) {
	t, err := machine.TargetByName(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %q (known: %s)", ErrUnknownTarget, name, strings.Join(TargetNames(), ", "))
	}
	return t, nil
}

// TargetNames lists the preset target names accepted by ParseTarget.
func TargetNames() []string {
	ts := machine.ExtendedTargets()
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.Name
	}
	return names
}

// Level selects how far the layout optimizations go — the four rows of the
// paper's Table 3.
type Level int

const (
	// LevelBaseline executes every convolution in plain NCHW.
	LevelBaseline Level = iota
	// LevelLayout blocks each convolution locally, paying per-CONV
	// transforms ("Layout Opt.").
	LevelLayout
	// LevelTransformElim keeps one blocked layout flowing through the graph
	// ("Transform Elim.").
	LevelTransformElim
	// LevelGlobalSearch adds the per-CONV scheme search combined by DP/PBQP
	// ("Global Search"). This is the full NeoCPU pipeline and the default.
	LevelGlobalSearch
)

// Levels returns all optimization levels in ascending order.
func Levels() []Level {
	return []Level{LevelBaseline, LevelLayout, LevelTransformElim, LevelGlobalSearch}
}

func (l Level) core() core.OptLevel {
	switch l {
	case LevelBaseline:
		return core.OptNone
	case LevelLayout:
		return core.OptLayout
	case LevelTransformElim:
		return core.OptTransformElim
	default:
		return core.OptGlobalSearch
	}
}

// String returns the level's canonical name, the form ParseLevel accepts
// ("baseline-nchw", "layout-opt", "transform-elim", "global-search").
func (l Level) String() string { return l.core().String() }

// ParseLevel resolves a level name ("baseline-nchw", "layout-opt",
// "transform-elim", "global-search").
func ParseLevel(s string) (Level, error) {
	for _, l := range Levels() {
		if l.String() == s {
			return l, nil
		}
	}
	names := make([]string, 0, 4)
	for _, l := range Levels() {
		names = append(names, l.String())
	}
	return 0, fmt.Errorf("%w: %q (known: %s)", ErrUnknownLevel, s, strings.Join(names, ", "))
}

// Backend selects the threading runtime for parallel kernel regions.
type Backend int

const (
	// BackendPool is NeoCPU's custom thread pool (long-lived workers, static
	// partitioning, spin join). The default.
	BackendPool Backend = iota
	// BackendOMP models an OpenMP-style fork/join runtime.
	BackendOMP
	// BackendSerial runs every kernel on the calling goroutine. Selecting it
	// forces the execution width to 1 — serial means one lane, regardless of
	// WithThreads.
	BackendSerial
)

func (b Backend) machine() machine.ThreadBackend {
	switch b {
	case BackendOMP:
		return machine.BackendOMP
	case BackendSerial:
		return machine.BackendSerial
	default:
		return machine.BackendPool
	}
}

// String returns the backend's name ("pool", "omp" or "serial").
func (b Backend) String() string { return b.machine().String() }

// SearchOptions tunes the global optimization-scheme search used at
// LevelGlobalSearch.
type SearchOptions struct {
	// MaxCands bounds the per-convolution candidate schemes kept from local
	// search; 0 means the default (8).
	MaxCands int
	// ForcePBQP uses the PBQP approximation instead of exact DP even for
	// graphs DP could handle (the paper uses PBQP for SSD-shaped graphs).
	ForcePBQP bool
}

type config struct {
	target      *Target
	level       Level
	threads     int
	backend     Backend
	int8        bool
	noWinograd  bool
	search      *SearchOptions
	predictOnly bool
	seed        uint64
	err         error
}

// Option configures Compile / CompileGraph.
type Option func(*config)

func newConfig(opts []Option) *config {
	cfg := &config{
		target:  machine.IntelSkylakeC5(),
		level:   LevelGlobalSearch,
		backend: BackendPool,
		seed:    42,
	}
	for _, o := range opts {
		o(cfg)
	}
	return cfg
}

// WithTarget compiles for the named preset CPU target (see TargetNames).
// The default is "intel-skylake".
func WithTarget(name string) Option {
	return func(c *config) {
		t, err := ParseTarget(name)
		if err != nil {
			c.err = err
			return
		}
		c.target = t
	}
}

// WithTargetSpec compiles for an explicit machine descriptor, for targets
// outside the presets.
func WithTargetSpec(t *Target) Option {
	return func(c *config) {
		if t == nil {
			c.err = fmt.Errorf("%w: nil target", ErrBadOption)
			return
		}
		c.target = t
	}
}

// WithOptLevel selects the optimization level. The default is
// LevelGlobalSearch.
func WithOptLevel(l Level) Option {
	return func(c *config) { c.level = l }
}

// WithThreads sets the execution width. 0 (the default) uses the target's
// core count.
func WithThreads(n int) Option {
	return func(c *config) {
		if n < 0 {
			c.err = fmt.Errorf("%w: negative thread count %d", ErrBadOption, n)
			return
		}
		c.threads = n
	}
}

// WithBackend selects the threading runtime. The default is BackendPool.
func WithBackend(b Backend) Option {
	return func(c *config) { c.backend = b }
}

// WithInt8 enables quantized INT8 inference: weights are quantized
// per-output-channel at compile time, activations dynamically per inference.
func WithInt8() Option {
	return func(c *config) { c.int8 = true }
}

// WithWinograd toggles the Winograd convolution algorithm as a searched
// dimension of the optimization scheme (enabled by default). At
// LevelGlobalSearch the search may then schedule 3x3 stride-1 convolutions
// with the F(2x2,3x3) Winograd kernel wherever its 2.25x multiply reduction
// beats the direct template's cost.
//
// Winograd computes in a transform domain, so fp32 results differ from the
// direct template in the last bits (typically within 1e-3 relative error for
// normalized CNN activations). Pass false for bit-compatibility with direct
// convolution. INT8 engines always run direct — there is no quantized
// Winograd kernel — so this option is a no-op when combined with WithInt8.
func WithWinograd(enabled bool) Option {
	return func(c *config) { c.noWinograd = !enabled }
}

// WithSearch overrides the global-search settings used at LevelGlobalSearch.
func WithSearch(s SearchOptions) Option {
	return func(c *config) { c.search = &s }
}

// WithPredictOnly skips weight materialization and pre-packing: the engine
// can PredictLatency (and report compilation statistics) but not execute.
// Latency-simulation harnesses use this to keep hundreds of compilations
// cheap.
func WithPredictOnly() Option {
	return func(c *config) { c.predictOnly = true }
}

// WithSeed sets the synthetic-weight seed for registry models (weights in
// this reproduction are deterministic pseudo-random tensors; the seed makes
// runs reproducible). The default is 42.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}
