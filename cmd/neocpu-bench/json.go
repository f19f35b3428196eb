package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/benchkernels"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/search"
	"repro/internal/tensor"
)

// This file implements the -json mode: machine-readable benchmark output so
// the performance trajectory is tracked across PRs instead of only living in
// transient test output. One BENCH_<target>.json per paper target; the
// schema (predicted, measured, serving) lives in internal/benchfmt, shared
// with neocpu-loadgen which appends the serving series.

// jsonSchemes are the optimization schemes tracked per model. The first four
// mirror the paper's Table 3 rows (direct template only, for comparability
// with the published ablation); the last adds the winograd algorithm
// dimension of the extended global search.
var jsonSchemes = []struct {
	name            string
	level           core.OptLevel
	disableWinograd bool
}{
	{"baseline-nchw", core.OptNone, true},
	{"layout-opt", core.OptLayout, true},
	{"transform-elim", core.OptTransformElim, true},
	{"global-search", core.OptGlobalSearch, true},
	{"global-search+winograd", core.OptGlobalSearch, false},
}

func writeBenchJSON(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	measured, err := measureHostKernels()
	if err != nil {
		return err
	}
	for _, t := range machine.AllTargets() {
		path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", t.Name))
		doc := benchfmt.File{
			Target:   t.Name,
			CPU:      t.CPU,
			Measured: measured,
		}
		// Regenerating kernel benchmarks must not erase the serving
		// trajectory: loadgen owns that series, so carry it over.
		if prev, err := benchfmt.Load(path); err == nil {
			doc.Serving = prev.Serving
		}
		// The paper's 15 models plus the post-paper extensions (mobilenet-v1:
		// the depthwise-separable scenario).
		for _, name := range models.ExtendedNames() {
			spec, err := models.Get(name)
			if err != nil {
				return err
			}
			for _, sch := range jsonSchemes {
				opts := core.Options{
					Level:           sch.level,
					NoPrepack:       true,
					DisableWinograd: sch.disableWinograd,
				}
				if sch.level == core.OptGlobalSearch {
					opts.Search = search.Options{
						MaxCands:  10,
						ForcePBQP: spec.UsePBQP,
						Threads:   t.Cores,
						Backend:   machine.BackendPool,
						DB:        core.SharedScheduleDB(t, t.Cores, machine.BackendPool),
					}
				}
				g, err := models.BuildShapeOnly(name)
				if err != nil {
					return err
				}
				m, err := core.Compile(g, t, opts)
				if err != nil {
					return fmt.Errorf("neocpu-bench: json %s/%s/%s: %w", t.Name, name, sch.name, err)
				}
				doc.Predicted = append(doc.Predicted, benchfmt.Entry{
					Model:   name,
					Scheme:  sch.name,
					NsPerOp: m.PredictLatency(core.PredictConfig{}) * 1e9,
				})
			}
		}
		if err := doc.Save(path); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d predicted, %d measured, %d serving entries)\n",
			path, len(doc.Predicted), len(doc.Measured), len(doc.Serving))
	}
	return nil
}

// measureHostKernels times the real Go kernels on the host via
// testing.Benchmark: the direct-vs-winograd matchup on the shared
// internal/benchkernels workload (the same one BenchmarkConvAlgorithm
// reports), and the session execution paths on tiny-resnet.
func measureHostKernels() ([]benchfmt.Entry, error) {
	var out []benchfmt.Entry
	record := func(name string, r testing.BenchmarkResult) error {
		// A b.Fatal inside the closure aborts the benchmark and yields a
		// zeroed result; recording 0 ns/op would poison the trajectory
		// diff, so fail the whole command instead.
		if r.N <= 0 || r.NsPerOp() <= 0 {
			return fmt.Errorf("neocpu-bench: benchmark %q failed (no iterations completed)", name)
		}
		out = append(out, benchfmt.Entry{
			Name:        name,
			NsPerOp:     float64(r.NsPerOp()),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
		return nil
	}

	for _, blk := range []int{8, 16} {
		for _, k := range []struct {
			name string
			iter func()
		}{
			{fmt.Sprintf("conv-algorithm/direct-NCHW%dc", blk), benchkernels.DirectBlocked(blk)},
			{fmt.Sprintf("conv-algorithm/winograd-NCHW%dc", blk), benchkernels.WinogradBlocked(blk)},
		} {
			iter := k.iter
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					iter()
				}
			})
			if err := record(k.name, r); err != nil {
				return nil, err
			}
		}
	}

	// Session benchmarks: the entry name promises which execution path was
	// measured, so each case verifies its plan before timing — trajectory
	// data that silently measures the wrong path would poison every diff.
	winogradGuard := func(want bool) func(*core.Module) error {
		return func(m *core.Module) error {
			winogradConvs := 0
			for _, n := range m.Graph.Convs() {
				if n.Sched.Algorithm == machine.AlgoWinograd {
					winogradConvs++
				}
			}
			if want && winogradConvs == 0 {
				return fmt.Errorf("global search scheduled no winograd convolutions")
			}
			if !want && winogradConvs != 0 {
				return fmt.Errorf("winograd scheduled despite DisableWinograd")
			}
			return nil
		}
	}
	interOpGuard := func(m *core.Module) error {
		if m.PlanStats().InterOpLevels == 0 {
			return fmt.Errorf("plan scheduled no inter-op levels")
		}
		return nil
	}
	depthwiseGuard := func(m *core.Module) error {
		// The entry name promises the depthwise kernel was measured: every
		// depthwise conv must carry a shared-block NCHWc schedule.
		dw := 0
		for _, n := range m.Graph.Convs() {
			wl := graph.ConvWorkload(n)
			if !wl.Depthwise() {
				continue
			}
			dw++
			if n.Sched.Layout.Kind != tensor.LayoutNCHWc || n.Sched.ICBlock != n.Sched.OCBlock {
				return fmt.Errorf("depthwise conv %v scheduled as %v, want shared-block NCHWc", n, n.Sched)
			}
		}
		if dw == 0 {
			return fmt.Errorf("no depthwise convolutions in the compiled graph")
		}
		return nil
	}
	serial := core.Options{Level: core.OptGlobalSearch, Threads: 1, Backend: machine.BackendSerial}
	serialNoWino := serial
	serialNoWino.DisableWinograd = true
	// The inter-op matchup: the same branchy model, same 4-wide pool, with
	// the executor's level dispatch off vs on. On a multi-core host the
	// inter-op entry tracks the branchy-model speedup; the arena bytes track
	// the memory planner across PRs.
	pool4 := core.Options{Level: core.OptTransformElim, Threads: 4, Backend: machine.BackendPool}
	pool4Seq := pool4
	pool4Seq.DisableInterOp = true
	for _, cfg := range []struct {
		name      string
		model     func(uint64) *graph.Graph
		opts      core.Options
		planGuard func(*core.Module) error
	}{
		{"session-run/tiny-resnet-direct", models.TinyResNet, serialNoWino, winogradGuard(false)},
		{"session-run/tiny-resnet-winograd", models.TinyResNet, serial, winogradGuard(true)},
		{"session-run/tiny-inception-seq", models.TinyInception, pool4Seq, nil},
		{"session-run/tiny-inception-interop", models.TinyInception, pool4, interOpGuard},
		{"session-run/tiny-mobilenet", models.TinyMobileNet, serial, depthwiseGuard},
	} {
		m, err := core.Compile(cfg.model(1), machine.IntelSkylakeC5(), cfg.opts)
		if err != nil {
			return nil, err
		}
		if cfg.planGuard != nil {
			if err := cfg.planGuard(m); err != nil {
				m.Close()
				return nil, fmt.Errorf("neocpu-bench: %q: %w", cfg.name, err)
			}
		}
		s, err := m.NewSession()
		if err != nil {
			m.Close()
			return nil, err
		}
		img := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
		img.FillRandom(3, 1)
		ctx := context.Background()
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(ctx, img); err != nil {
					b.Fatal(err)
				}
			}
		})
		arena := s.ArenaBytes()
		m.Close()
		if err := record(cfg.name, r); err != nil {
			return nil, err
		}
		out[len(out)-1].ArenaBytes = int64(arena)
	}

	scaling, err := scalingSeries("tiny-resnet", models.TinyResNet)
	if err != nil {
		return nil, err
	}
	out = append(out, scaling...)
	return out, nil
}

// scalingThreadCounts is the thread axis of the scaling series: powers of
// two up to the host's CPU count, with the CPU count itself appended when
// it is not a power of two.
func scalingThreadCounts() []int {
	counts := []int{1}
	for th := 2; th <= runtime.NumCPU(); th *= 2 {
		counts = append(counts, th)
	}
	if last := counts[len(counts)-1]; last != runtime.NumCPU() {
		counts = append(counts, runtime.NumCPU())
	}
	return counts
}

// scalingSeries measures intra-op thread scaling of whole-model session
// execution: the same model recompiled at each thread count (so the
// schedule search re-picks block sizes for that width) and timed on the
// host. Entries are named scaling/<model>/threads-<n> and
// carry the speedup over the single-thread entry of the same series — the
// figure examples/scaling prints and CI's scaling smoke checks.
func scalingSeries(name string, build func(uint64) *graph.Graph) ([]benchfmt.Entry, error) {
	var out []benchfmt.Entry
	var base float64
	for _, th := range scalingThreadCounts() {
		opts := core.Options{Level: core.OptGlobalSearch, Threads: th, Backend: machine.BackendPool}
		if th == 1 {
			opts.Backend = machine.BackendSerial
		}
		m, err := core.Compile(build(1), machine.IntelSkylakeC5(), opts)
		if err != nil {
			return nil, fmt.Errorf("neocpu-bench: scaling/%s threads=%d: %w", name, th, err)
		}
		s, err := m.NewSession()
		if err != nil {
			m.Close()
			return nil, err
		}
		img := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
		img.FillRandom(3, 1)
		ctx := context.Background()
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(ctx, img); err != nil {
					b.Fatal(err)
				}
			}
		})
		m.Close()
		if r.N <= 0 || r.NsPerOp() <= 0 {
			return nil, fmt.Errorf("neocpu-bench: scaling/%s threads=%d produced no iterations", name, th)
		}
		ns := float64(r.NsPerOp())
		if th == 1 {
			base = ns
		}
		out = append(out, benchfmt.Entry{
			Name:        fmt.Sprintf("scaling/%s/threads-%d", name, th),
			NsPerOp:     ns,
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Threads:     th,
			Speedup:     base / ns,
		})
	}
	return out, nil
}
