package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/schedule"
	"repro/internal/search"
	"repro/internal/tensor"
	"repro/internal/threadpool"
)

// This file holds the per-layer measurements every workload shares. Each one
// times calls into a layer's public functions from out here; nothing inside
// the program is instrumented.

// weightSeed is the models' fixed parameter seed (the facade's default), so
// --seed only ever changes inputs and the model-choice sequence.
const weightSeed = 42

// maxCands is the facade's default candidate cap at global search; compiling
// through internal/core directly must match it to compile the same plans.
const maxCands = 8

type graphBuilder func() (*graph.Graph, error)

func registryModel(name string) graphBuilder {
	return func() (*graph.Graph, error) { return models.BuildAny(name, weightSeed) }
}

// compileOptions are the global-search options of one cold compile: a fresh
// schedule database, so local search runs from scratch.
func compileOptions(threads int) core.Options {
	return core.Options{
		Level:   core.OptGlobalSearch,
		Threads: threads,
		Backend: machine.BackendPool,
		Search:  search.Options{MaxCands: maxCands, DB: schedule.NewDB()},
	}
}

func defaultTarget() *machine.Target { return machine.IntelSkylakeC5() }

// traceCompile attributes a cold compile to its phases. core.Compile keeps
// its tail (weight packing, execution plan) private, so the phases are timed
// one by one on one copy of the graph, a whole core.Compile is timed on a
// second copy, and core.finalize_ms is the difference. It returns the module
// of the whole compile; the caller closes it.
func traceCompile(rec *recorder, m metricSet, build graphBuilder, threads int) (*core.Module, error) {
	t := defaultTarget()
	// One discarded compile first: the phases run before the whole compile
	// they are subtracted from, and must not also pay for cold code and a
	// cold heap.
	g, err := build()
	if err != nil {
		return nil, err
	}
	warm, err := core.Compile(g, t, compileOptions(threads))
	if err != nil {
		return nil, err
	}
	warm.Close()
	if g, err = build(); err != nil {
		return nil, err
	}
	m.set("graph.nodes_before", float64(g.ComputeStats().Nodes))

	parent := rec.reserve("compile.phases", "", 0, time.Now())
	var simplify time.Duration
	for _, pass := range []struct {
		name string
		fn   func(*graph.Graph) error
	}{
		{"graph.RemoveDropout", graph.RemoveDropout},
		{"graph.FoldBatchNorms", graph.FoldBatchNorms},
		{"graph.FuseOps", graph.FuseOps},
	} {
		d, err := rec.time(pass.name, parent, func() error { return pass.fn(g) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pass.name, err)
		}
		simplify += d
	}

	opts := compileOptions(threads)
	sOpts := opts.Search
	sOpts.Threads, sOpts.Backend = opts.Threads, opts.Backend
	candidates, seen := 0, map[string]bool{}
	for _, n := range g.Convs() {
		wl := graph.ConvWorkload(n)
		if !seen[wl.Key()] {
			seen[wl.Key()] = true
			candidates += len(schedule.Candidates(wl, t))
		}
	}
	var outcome *search.Outcome
	global, err := rec.time("search.GlobalSearch", parent, func() (err error) {
		outcome, err = search.GlobalSearch(g, t, sOpts)
		return err
	})
	if err != nil {
		return nil, err
	}
	alter, err := rec.time("graph.AlterOpLayout", parent, func() error {
		return graph.AlterOpLayout(g, outcome.Plan, true)
	})
	if err != nil {
		return nil, err
	}
	rec.finish(parent, time.Now())

	g2, err := build()
	if err != nil {
		return nil, err
	}
	var mod *core.Module
	whole, err := rec.time("core.Compile", 0, func() (err error) {
		mod, err = core.Compile(g2, t, compileOptions(threads))
		return err
	})
	if err != nil {
		return nil, err
	}

	m.set("graph.simplify_fuse_ms", ms(simplify))
	m.set("graph.alter_layout_ms", ms(alter))
	m.set("graph.nodes_after", float64(g.ComputeStats().Nodes))
	m.set("graph.layout_transforms", float64(mod.TransformCount()))
	m.set("schedule.local_search_ms", ms(global-outcome.Elapsed))
	m.set("schedule.unique_workloads", float64(sOpts.DB.Len()))
	m.set("schedule.candidates", float64(candidates))
	m.set("search.global_ms", ms(global))
	m.set("search.solver_ms", ms(outcome.Elapsed))
	m.set("search.states", float64(outcome.States))
	algo := 0.0
	if outcome.Algorithm == search.AlgoPBQP {
		algo = 1
	}
	m.set("search.algorithm", algo)
	m.set("core.finalize_ms", ms(whole-simplify-global-alter))
	m.set("machine.predicted_ms", mod.PredictLatency(core.PredictConfig{})*1000)
	planMetrics(m, mod.PlanStats())
	return mod, nil
}

const mib = 1 << 20

func planMetrics(m metricSet, ps core.PlanStats) {
	m.set("core.arena_mib", float64(ps.ArenaBytes)/mib)
	m.set("core.naive_arena_mib", float64(ps.NaiveArenaBytes)/mib)
	m.set("core.plan_slots", float64(ps.Slots))
	m.set("core.levels", float64(ps.Levels))
	m.set("core.interop_levels", float64(ps.InterOpLevels))
	m.set("core.hybrid_levels", float64(ps.HybridLevels))
}

// opBucket names the ops.* metric an operator's time is charged to: by node
// kind, and for convolutions by kernel size, grouping and the algorithm the
// search scheduled.
func opBucket(n *graph.Node) string {
	switch n.Op {
	case graph.OpConv2D:
		switch {
		case graph.ConvWorkload(n).Depthwise():
			return "ops.conv_depthwise_ms"
		case n.Conv.KH == 1 && n.Conv.KW == 1:
			return "ops.conv1x1_ms"
		case n.Conv.KH == 3 && n.Conv.KW == 3 && n.Sched.Algorithm == machine.AlgoWinograd:
			return "ops.conv3x3_winograd_ms"
		case n.Conv.KH == 3 && n.Conv.KW == 3:
			return "ops.conv3x3_direct_ms"
		}
		return "ops.conv_other_ms"
	case graph.OpDense:
		return "ops.dense_ms"
	case graph.OpPool, graph.OpGlobalAvgPool:
		return "ops.pool_ms"
	case graph.OpLayoutTransform:
		return "ops.layout_transform_ms"
	}
	return "ops.other_ms"
}

var opBuckets = []string{
	"ops.conv3x3_winograd_ms", "ops.conv3x3_direct_ms", "ops.conv_other_ms",
	"ops.conv1x1_ms", "ops.conv_depthwise_ms", "ops.dense_ms", "ops.pool_ms",
	"ops.layout_transform_ms", "ops.other_ms",
}

// opProfile accumulates profiled runs: per-run bucket sums, the per-run sum
// of all operator spans, and the wall time of each profiled call.
type opProfile struct {
	buckets map[string][]float64
	opSum   []float64
	wall    []float64
	convSec []float64
	gflop   float64
}

func newOpProfile() *opProfile { return &opProfile{buckets: map[string][]float64{}} }

// run makes one profiled inference and re-emits its operator timings as
// child spans of the run span. RunProfiled reports durations, not start
// times: the operators ran back to back and last, so the children are laid
// end to end finishing at the run's end.
func (p *opProfile) run(rec *recorder, mod *core.Module, in *tensor.Tensor) ([]*tensor.Tensor, error) {
	start := time.Now()
	id := rec.reserve("core.RunProfiled", "", 0, start)
	outs, prof, err := mod.RunProfiled(in)
	end := time.Now()
	rec.finish(id, end)
	if err != nil {
		return nil, err
	}
	sums := map[string]float64{}
	var conv time.Duration
	p.gflop = 0
	at := end.Add(-prof.Total)
	for _, t := range prof.Timings {
		rec.add(opBucket(t.Node)+":"+t.Node.Name, "", id, at, at.Add(t.Elapsed))
		at = at.Add(t.Elapsed)
		sums[opBucket(t.Node)] += ms(t.Elapsed)
		if t.Node.Op == graph.OpConv2D {
			conv += t.Elapsed
			p.gflop += graph.ConvWorkload(t.Node).FLOPs() / 1e9
		}
	}
	var total float64
	for _, b := range opBuckets {
		p.buckets[b] = append(p.buckets[b], sums[b])
		total += sums[b]
	}
	p.opSum = append(p.opSum, total)
	p.wall = append(p.wall, ms(end.Sub(start)))
	p.convSec = append(p.convSec, conv.Seconds())
	return outs, nil
}

// report writes the ops.* metrics and the two numbers derived from an
// untraced Session.Run median: executor overhead and tracing overhead.
func (p *opProfile) report(m metricSet, untracedP50 float64) {
	for _, b := range opBuckets {
		m.setN(b, median(p.buckets[b]), len(p.buckets[b]))
	}
	// Computed, not measured: FLOPs follow from the layer shapes.
	m.set("ops.conv_gflop", p.gflop)
	if c := median(p.convSec); c > 0 {
		m.set("ops.conv_gflops_rate", p.gflop/c)
	}
	m.setN("core.exec_overhead_ms", untracedP50-median(p.opSum), len(p.opSum))
	if untracedP50 > 0 {
		m.set("trace.overhead_frac", median(p.wall)/untracedP50-1)
	}
}

// profileOperators measures a compiled module's kernels directly: warm-up
// runs, an untraced Session.Run loop for the baseline median, then profiled
// runs whose operator timings become spans and the ops.* metrics. Every
// output is checked against refs.
func profileOperators(rec *recorder, res *runResult, mod *core.Module, inputs, refs []*tensor.Tensor, untracedFor, tracedFor time.Duration, minRuns int) error {
	sess, err := mod.NewSession()
	if err != nil {
		return err
	}
	run := func(in *tensor.Tensor) ([]*tensor.Tensor, error) { return sess.Run(context.Background(), in) }
	for i := 0; i < b1Warmup; i++ {
		if _, err := run(inputs[i%len(inputs)]); err != nil {
			return err
		}
	}
	prof := newOpProfile()
	profiled := func(in *tensor.Tensor) ([]*tensor.Tensor, error) { return prof.run(rec, mod, in) }
	var untraced float64
	for _, phase := range []struct {
		run func(*tensor.Tensor) ([]*tensor.Tensor, error)
		d   time.Duration
	}{{run, untracedFor}, {profiled, tracedFor}} {
		lat, failed, err := closedLoop(phase.run, inputs, refs, phase.d, minRuns)
		if err != nil {
			return err
		}
		res.Attempted += len(lat)
		res.Failed += failed
		if untraced == 0 {
			untraced = median(lat)
		}
	}
	m := res.Metrics
	prof.report(m, untraced)
	if p := m["machine.predicted_ms"].Value; p > 0 {
		m.set("machine.predict_ratio", untraced/p)
	}
	return nil
}

// artifactRoundTrip times SaveBundle and LoadBundle on the compiled module,
// in memory, so the numbers are the codec's and not the disk's.
func artifactRoundTrip(rec *recorder, m metricSet, mod *core.Module) error {
	var buf bytes.Buffer
	save, err := rec.time("artifact.SaveBundle", 0, func() error { return mod.SaveBundle(&buf) })
	if err != nil {
		return fmt.Errorf("save bundle: %w", err)
	}
	size := buf.Len()
	var loaded *core.Module
	load, err := rec.time("core.LoadBundle", 0, func() (err error) {
		loaded, err = core.LoadBundle(&buf, models.ResolveGraph, core.Options{Threads: 1, Backend: machine.BackendPool})
		return err
	})
	if err != nil {
		return fmt.Errorf("load bundle: %w", err)
	}
	loaded.Close()
	m.set("artifact.save_ms", ms(save))
	m.set("artifact.load_ms", ms(load))
	m.set("artifact.bundle_kib", float64(size)/1024)
	return nil
}

// dispatchCost is the median cost of an empty parallel region over T items:
// what every kernel pays the thread pool before doing any work.
func dispatchCost(m metricSet, threads int) {
	pool := threadpool.NewPool(threads)
	defer pool.Close()
	const rounds = 2000
	samples := make([]float64, rounds)
	for i := range samples {
		start := time.Now()
		pool.ParallelFor(threads, func(int) {})
		samples[i] = float64(time.Since(start)) / float64(time.Microsecond)
	}
	m.setN("threadpool.dispatch_us", median(samples), rounds)
	m.set("threadpool.threads", float64(threads))
}

// seededInputs makes k deterministic NCHW inputs from the run seed.
func seededInputs(seed int64, k int, dims []int) []*tensor.Tensor {
	ins := make([]*tensor.Tensor, k)
	for i := range ins {
		ins[i] = tensor.New(tensor.NCHW(), dims...)
		ins[i].FillRandom(uint64(seed)*1_000_003+uint64(i), 1)
	}
	return ins
}
