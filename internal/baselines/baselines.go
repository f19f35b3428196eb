// Package baselines simulates the engines the paper compares against in
// Section 4: MXNet (with Intel MKL-DNN on x86 and OpenBlas on ARM),
// TensorFlow (with ngraph on x86 and Eigen on ARM), and the Intel OpenVINO
// toolkit. Each engine runs the *same* model graph through the NeoCPU-Go
// compiler, but constrained to the structural properties the paper ascribes
// to it:
//
//   - how much graph-level layout optimization it may perform (library-style
//     per-CONV transforms vs. maintained blocked layouts vs. global search);
//   - how well its kernels are tuned for the target architecture (vendor
//     libraries lose efficiency on foreign CPUs: MKL-DNN on AMD, OpenBlas
//     and Eigen on ARM);
//   - its threading runtime (OpenMP for every library-based engine, the
//     custom thread pool for NeoCPU);
//   - per-operator framework dispatch overhead;
//   - the pathologies the paper observed: OpenVINO's VGG fallback and its
//     AMD outliers ("for unknown reasons"), OpenVINO's SSD timing that
//     excludes multibox post-processing (the Table 2 asterisk), and
//     TensorFlow's dynamic-branch penalty on SSD.
//
// The point of the simulation is the comparison's *shape* — who wins per
// architecture and by roughly what factor — not the reproduction of exact
// EC2 milliseconds.
package baselines

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/search"
)

// Engine names one inference stack.
type Engine string

const (
	// EngineMXNet is MXNet 1.3.1 + MKL-DNN v0.15 (x86) / OpenBlas (ARM).
	EngineMXNet Engine = "MXNet"
	// EngineTensorFlow is TensorFlow 1.12 + ngraph (x86) / Eigen (ARM).
	EngineTensorFlow Engine = "TensorFlow"
	// EngineOpenVINO is the OpenVINO Toolkit 2018 R5 (x86 only).
	EngineOpenVINO Engine = "OpenVINO"
	// EngineNeoCPU is this repository's full optimization pipeline.
	EngineNeoCPU Engine = "NeoCPU"
)

// Engines returns the comparison order used in the tables.
func Engines() []Engine {
	return []Engine{EngineMXNet, EngineTensorFlow, EngineOpenVINO, EngineNeoCPU}
}

// Available reports whether the engine exists on the target ("OpenVINO does
// not work for ARM CPUs as it relies on MKL-DNN").
func Available(e Engine, t *machine.Target) bool {
	if e == EngineOpenVINO && t.ISA == machine.NEON {
		return false
	}
	return true
}

// policy captures how an engine is allowed to compile and execute.
type policy struct {
	level    core.OptLevel
	backend  machine.ThreadBackend
	quality  float64 // conv-kernel tuning for this target
	dispatch float64 // per-node framework dispatch overhead (seconds)
	noFusion bool    // library kernels cannot absorb ReLU/add epilogues
	noBNFold bool    // framework executes BatchNorm as a standalone op
}

// enginePolicy resolves the engine's constraints on one target.
func enginePolicy(e Engine, t *machine.Target) policy {
	switch e {
	case EngineNeoCPU:
		// Full joint optimization, custom thread pool, compiled module (no
		// interpreter dispatch).
		return policy{core.OptGlobalSearch, machine.BackendPool, 1.0, 0.2e-6, false, false}

	case EngineMXNet:
		switch t.ISA {
		case machine.AVX512:
			// MKL-DNN is vendor-tuned for Intel (its hand-written assembly
			// slightly beats a generic template on its home turf) and keeps
			// its blocked layout between consecutive library ops, but cannot
			// fuse framework-side operators into its kernels and uses one
			// fixed scheme per workload class rather than a per-model global
			// search.
			return policy{core.OptTransformElim, machine.BackendOMP, 1.02, 2e-6, true, false}
		case machine.AVX2:
			// The same binary on AMD: correct but less tuned.
			return policy{core.OptTransformElim, machine.BackendOMP, 0.8, 2e-6, true, false}
		default:
			// OpenBlas im2col+GEMM convolutions on ARM with poor
			// multi-threading scalability (Figure 4c).
			return policy{core.OptLayout, machine.BackendOMP, 0.62, 3e-6, true, true}
		}

	case EngineTensorFlow:
		switch t.ISA {
		case machine.AVX512:
			// ngraph bridges to library kernels but pays per-op layout round
			// trips and a heavier runtime.
			return policy{core.OptLayout, machine.BackendOMP, 0.95, 6e-6, false, true}
		case machine.AVX2:
			return policy{core.OptLayout, machine.BackendOMP, 0.78, 6e-6, false, true}
		default:
			// Eigen on ARM: better tuned than OpenBlas and a better thread
			// runtime, which is why TensorFlow led the ARM baselines.
			return policy{core.OptLayout, machine.BackendOMP, 0.45, 4e-6, false, true}
		}

	case EngineOpenVINO:
		switch t.ISA {
		case machine.AVX512:
			// Framework-agnostic graph optimization (fusion, maintained
			// layouts) on top of MKL-DNN kernels; no per-model search.
			return policy{core.OptTransformElim, machine.BackendOMP, 0.88, 0.8e-6, false, false}
		default: // AVX2
			return policy{core.OptTransformElim, machine.BackendOMP, 0.82, 0.8e-6, false, false}
		}
	}
	panic(fmt.Sprintf("baselines: unknown engine %q", e))
}

// quirks returns a multiplicative latency factor and whether the SSD head is
// excluded from timing, reproducing the anomalies Table 2 reports.
func quirks(e Engine, modelName string, t *machine.Target) (factor float64, skipSSDHead bool) {
	factor = 1
	switch e {
	case EngineOpenVINO:
		// "OpenVINO sometimes performed extremely slowly on certain models
		// ... for unknown reasons." The factors below reproduce the observed
		// magnitudes; the paper excludes these outliers from its speedup
		// summary and so do our reports.
		if strings.HasPrefix(modelName, "vgg") {
			if t.ISA == machine.AVX512 {
				factor = 9
			} else {
				factor = 11
			}
		}
		if t.ISA == machine.AVX2 {
			switch modelName {
			case "resnet-101", "resnet-152":
				factor = 30
			case "densenet-161", "densenet-169", "densenet-201":
				factor = 12
			}
		}
		// "OpenVINO measures the execution time of SSD without taking into
		// account a significant amount of operations including multibox
		// detection" (the Table 2 asterisk).
		if modelName == "ssd-resnet-50" {
			skipSSDHead = true
		}
	case EngineTensorFlow:
		// "TensorFlow performs significantly worse on SSD as it introduces
		// branches to this model, which requires dynamic decisions ... during
		// the runtime."
		if modelName == "ssd-resnet-50" {
			if t.ISA == machine.NEON {
				factor = 3.2
			} else {
				factor = 7
			}
		}
	}
	return factor, skipSSDHead
}

// armScalabilityCap models MXNet/OpenBlas's multi-threading scalability
// problem on ARM (Figure 4c): beyond this many threads, extra threads add
// nothing.
const armScalabilityCap = 8

// effectiveThreads applies engine-specific scalability limits.
func effectiveThreads(e Engine, t *machine.Target, threads int) int {
	if threads <= 0 {
		threads = t.Cores
	}
	if threads > t.Cores {
		threads = t.Cores
	}
	if e == EngineMXNet && t.ISA == machine.NEON && threads > armScalabilityCap {
		threads = armScalabilityCap
	}
	return threads
}

// Prediction is one simulated measurement.
type Prediction struct {
	Engine  Engine
	Model   string
	Target  string
	Threads int
	// Seconds is the predicted batch-1 latency.
	Seconds float64
}

type moduleKey struct {
	engine  Engine
	model   string
	target  string
	backend machine.ThreadBackend
}

var (
	cacheMu sync.Mutex
	// modules caches compiled (prediction-only) modules; compilation — and
	// NeoCPU's global search — happens once per engine/model/target/backend,
	// at full core count, the way a deployed module is compiled once and then
	// run at whatever width the experiment asks for.
	modules = map[moduleKey]*core.Module{}
)

// Predict simulates one engine running one model on one target with the
// given thread count (0 = all cores).
func Predict(e Engine, modelName string, t *machine.Target, threads int) (Prediction, error) {
	return predict(e, modelName, t, threads, enginePolicy(e, t).backend)
}

// PredictOnBackend overrides the threading runtime; Figure 4 uses it to
// plot NeoCPU with OpenMP against NeoCPU with its own thread pool.
func PredictOnBackend(e Engine, modelName string, t *machine.Target, threads int, backend machine.ThreadBackend) (Prediction, error) {
	return predict(e, modelName, t, threads, backend)
}

// module returns the cached compiled module for one configuration.
func module(e Engine, modelName string, t *machine.Target, backend machine.ThreadBackend) (*core.Module, error) {
	spec, err := models.Get(modelName)
	if err != nil {
		return nil, err
	}
	key := moduleKey{e, modelName, t.Name, backend}
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if m, ok := modules[key]; ok {
		return m, nil
	}
	pol := enginePolicy(e, t)
	opts := core.Options{
		Level:         pol.level,
		Threads:       t.Cores,
		NoPrepack:     true,
		DisableFusion: pol.noFusion,
		DisableBNFold: pol.noBNFold,
		// Table 2 reproduces the paper's evaluation, which predates the
		// Winograd algorithm extension (the paper names it as Section 6
		// future work); every simulated engine, NeoCPU included, runs the
		// direct template here so the published comparison shape holds.
		// The Winograd gains are reported by the extension benchmarks
		// (BenchmarkConvAlgorithm, BenchmarkSessionRunWinograd).
		DisableWinograd: true,
	}
	if pol.level == core.OptGlobalSearch {
		opts.Search = search.Options{
			MaxCands:  10,
			ForcePBQP: spec.UsePBQP,
			Threads:   t.Cores,
			Backend:   backend,
			DB:        core.SharedScheduleDB(t, t.Cores, backend),
		}
	}
	g, err := models.BuildShapeOnly(modelName)
	if err != nil {
		return nil, err
	}
	m, err := core.Compile(g, t, opts)
	if err != nil {
		return nil, fmt.Errorf("baselines: compile %s/%s: %w", e, modelName, err)
	}
	modules[key] = m
	return m, nil
}

func predict(e Engine, modelName string, t *machine.Target, threads int, backend machine.ThreadBackend) (Prediction, error) {
	if !Available(e, t) {
		return Prediction{}, fmt.Errorf("baselines: %s is not available on %s", e, t.Name)
	}
	threads = effectiveThreads(e, t, threads)
	m, err := module(e, modelName, t, backend)
	if err != nil {
		return Prediction{}, err
	}

	pol := enginePolicy(e, t)
	factor, skipSSD := quirks(e, modelName, t)
	cfg := core.PredictConfig{
		Threads:          threads,
		Backend:          backend,
		KernelQuality:    pol.quality,
		DispatchOverhead: pol.dispatch,
	}
	secs := m.PredictLatency(cfg)
	if skipSSD {
		secs -= m.PredictSSDHeadOnly(cfg)
	}
	secs *= factor
	return Prediction{Engine: e, Model: modelName, Target: t.Name, Threads: threads, Seconds: secs}, nil
}
