package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/tensor"
)

// The -b1 workloads: closed loop, one caller, batch 1, a full-size model
// compiled at global search with T kernel threads.

const (
	// b1Inputs is how many seeded inputs the loop cycles through. Each needs
	// a reference output from the slow NCHW kernels (about 2 s apiece for
	// resnet-18 on two cores), which is what keeps the number small; the
	// kernels' time does not depend on the values.
	b1Inputs = 2
	b1Warmup = 3
	// b1Setups is how many times set-up is repeated; setup_s and compile_s
	// are the medians.
	b1Setups = 3
	// refTolerance is the documented fp32/Winograd agreement between the
	// searched kernels and plain direct convolution
	// (docs/ARCHITECTURE.md: "typically within 1e-3"), applied to the spread
	// of the reference output. The classifiers end in a softmax over 1000
	// near-uniform classes (all within 1% of 0.001 under synthetic weights),
	// so an absolute 1e-3, or one relative to the peak, would pass any
	// output at all; what the kernels decide is the pattern across classes,
	// and the tolerance is a thousandth of that pattern's range.
	refTolerance = 1e-3
)

type b1Spec struct {
	model, smokeModel string
}

var b1Specs = map[string]b1Spec{
	wlResNet18:  {"resnet-18", "tiny-resnet"},
	wlMobileNet: {"mobilenet-v1", "tiny-mobilenet"},
}

// withinTolerance compares an output with its reference from the independent
// path.
func withinTolerance(got, ref *tensor.Tensor) bool {
	if got.NumElements() != ref.NumElements() || len(ref.Data) == 0 {
		return false
	}
	lo, hi := ref.Data[0], ref.Data[0]
	for _, v := range ref.Data {
		lo, hi = min(lo, v), max(hi, v)
	}
	return tensor.MaxAbsDiff(got, ref) <= refTolerance*float64(hi-lo)
}

// b1References runs every input through the same graph compiled at
// baseline-nchw: reference NCHW kernels, no search, no blocking, no
// Winograd. It is the benchmark's own work and is not part of setup_s.
func b1References(build graphBuilder, threads int, inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	g, err := build()
	if err != nil {
		return nil, err
	}
	opts := compileOptions(threads)
	opts.Level = core.OptNone
	ref, err := core.Compile(g, defaultTarget(), opts)
	if err != nil {
		return nil, fmt.Errorf("reference compile: %w", err)
	}
	defer ref.Close()
	sess, err := ref.NewSession()
	if err != nil {
		return nil, err
	}
	outs := make([]*tensor.Tensor, len(inputs))
	for i, in := range inputs {
		o, err := sess.Run(context.Background(), in)
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		outs[i] = o[0].Clone()
	}
	return outs, nil
}

// b1Env is one finished set-up: a compiled module and a warm session.
type b1Env struct {
	mod     *core.Module
	sess    *core.Session
	compile time.Duration
}

// b1Setup is everything a user pays before the first inference: building the
// model, a cold global-search compile with weights packed, a session, and
// the warm-up runs. mismatches counts warm-up outputs outside the tolerance.
func b1Setup(build graphBuilder, threads int, inputs, refs []*tensor.Tensor) (env *b1Env, mismatches int, err error) {
	g, err := build()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	mod, err := core.Compile(g, defaultTarget(), compileOptions(threads))
	if err != nil {
		return nil, 0, fmt.Errorf("compile: %w", err)
	}
	env = &b1Env{mod: mod, compile: time.Since(start)}
	if env.sess, err = mod.NewSession(); err != nil {
		mod.Close()
		return nil, 0, err
	}
	for i := 0; i < b1Warmup; i++ {
		k := i % len(inputs)
		outs, err := env.sess.Run(context.Background(), inputs[k])
		if err != nil {
			mod.Close()
			return nil, 0, fmt.Errorf("warm-up run: %w", err)
		}
		if !withinTolerance(outs[0], refs[k]) {
			mismatches++
		}
	}
	return env, mismatches, nil
}

// closedLoop runs inferences back to back until the deadline, at least
// minRuns of them, checking every output. It returns the per-inference
// latencies in milliseconds, in order.
func closedLoop(run func(in *tensor.Tensor) ([]*tensor.Tensor, error), inputs, refs []*tensor.Tensor, d time.Duration, minRuns int) (lat []float64, failed int, err error) {
	start := time.Now()
	for i := 0; i < minRuns || time.Since(start) < d; i++ {
		k := i % len(inputs)
		t0 := time.Now()
		outs, err := run(inputs[k])
		lat = append(lat, ms(time.Since(t0)))
		if err != nil {
			return nil, 0, err
		}
		if !withinTolerance(outs[0], refs[k]) {
			failed++
		}
	}
	return lat, failed, nil
}

// inferencesPerSecond is the throughput of a stretch of back-to-back
// inferences: their count over the time they took.
func inferencesPerSecond(lat []float64) float64 {
	var total float64
	for _, l := range lat {
		total += l
	}
	return float64(len(lat)) / (total / 1000)
}

func runB1(cfg config) (*runResult, error) {
	spec := b1Specs[cfg.workload]
	model := spec.model
	if cfg.smoke {
		model = spec.smokeModel
	}
	build := registryModel(model)
	threads := sizingT()
	res := cfg.newResult()
	m := res.Metrics

	probe, err := build()
	if err != nil {
		return nil, err
	}
	inputs := seededInputs(cfg.seed, b1Inputs, probe.Input.OutShape.Dims)
	probe = nil
	refs, err := b1References(build, threads, inputs)
	if err != nil {
		return nil, err
	}
	// The reference module held a second copy of the weights; return it to
	// the OS so peak_rss_mib is the program's footprint, not the harness's.
	debug.FreeOSMemory()

	if cfg.trace {
		return res, traceB1(cfg, res, build, threads, inputs, refs)
	}

	var env *b1Env
	var setups, compiles []float64
	for i := 0; i < cfg.setups(b1Setups); i++ {
		if env != nil {
			env.mod.Close()
			env = nil
			runtime.GC()
		}
		start := time.Now()
		var bad int
		env, bad, err = b1Setup(build, threads, inputs, refs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		compiles = append(compiles, env.compile.Seconds())
		res.Attempted += b1Warmup
		res.Failed += bad
	}
	defer env.mod.Close()

	run := func(in *tensor.Tensor) ([]*tensor.Tensor, error) {
		return env.sess.Run(context.Background(), in)
	}
	lat, failed, err := closedLoop(run, inputs, refs, cfg.duration(), 10)
	if err != nil {
		return nil, err
	}
	res.Attempted += len(lat)
	res.Failed += failed

	m.setN("setup_s", median(setups), len(setups))
	m.setN("compile_s", median(compiles), len(compiles))
	m.setN("latency_p50_ms", bestChunk(lat, chunks, median, false), len(lat))
	m.setN("latency_p90_ms", bestChunk(lat, chunks, p90, false), len(lat))
	m.setN("throughput_ips", bestChunk(lat, chunks, inferencesPerSecond, true), len(lat))
	m.set("arena_mib", float64(env.sess.ArenaBytes())/mib)
	res.noteWholeRun(lat)
	return res, res.finish()
}

// traceB1 is the traced pass: the compile attributed to its phases, then the
// operators (a quarter of the time untraced for the baseline, the rest
// profiled).
func traceB1(cfg config, res *runResult, build graphBuilder, threads int, inputs, refs []*tensor.Tensor) error {
	rec := newRecorder()
	m := res.Metrics
	mod, err := traceCompile(rec, m, build, threads)
	if err != nil {
		return err
	}
	defer mod.Close()
	if err := artifactRoundTrip(rec, m, mod); err != nil {
		return err
	}
	dispatchCost(m, threads)

	if err := profileOperators(rec, res, mod, inputs, refs, cfg.duration()/4, cfg.duration()*3/4, 5); err != nil {
		return err
	}
	if err := rec.write(traceFile(cfg.outDir, cfg.workload)); err != nil {
		return err
	}
	return res.finish()
}
