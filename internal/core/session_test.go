package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/tensor"
)

func sessionModule(t *testing.T, threads int) *Module {
	t.Helper()
	m, err := Compile(models.TinyResNet(4), skylake(), Options{
		Level: OptTransformElim, Threads: threads,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func TestSessionMatchesRun(t *testing.T) {
	m := sessionModule(t, 1)
	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(11, 1)
	want, err := m.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	// Repeated runs must be deterministic and bit-identical to Module.Run:
	// the arena is reused, never re-derived.
	for i := 0; i < 3; i++ {
		got, err := s.Run(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.BitEqual(want[0], got[0]) {
			t.Fatalf("run %d: session output diverges from Module.Run", i)
		}
	}
}

func TestSessionArenaReuse(t *testing.T) {
	m := sessionModule(t, 1)
	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(11, 1)
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Run(ctx, in); err != nil { // warm-up
		t.Fatal(err)
	}

	sessAllocs := testing.AllocsPerRun(10, func() {
		if _, err := s.Run(ctx, in); err != nil {
			t.Fatal(err)
		}
	})
	modAllocs := testing.AllocsPerRun(10, func() {
		if _, err := m.Run(in); err != nil {
			t.Fatal(err)
		}
	})
	// Steady-state session execution allocates no tensors: what remains is
	// the handful of parallel-region closures the kernels pass to the
	// threading runtime (about one per graph node).
	if limit := float64(2 * len(m.program)); sessAllocs > limit {
		t.Fatalf("session allocs/op = %v, want <= %v (program has %d nodes)", sessAllocs, limit, len(m.program))
	}
	if sessAllocs*2 > modAllocs {
		t.Fatalf("arena win too small: session %v allocs/op vs module %v", sessAllocs, modAllocs)
	}

	// The byte volume is where the arena matters: Module.Run re-allocates
	// every feature map, the session none of them.
	bytesPer := func(f func()) uint64 {
		const reps = 10
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / reps
	}
	sessBytes := bytesPer(func() { s.Run(ctx, in) })
	modBytes := bytesPer(func() { m.Run(in) })
	if sessBytes*10 > modBytes {
		t.Fatalf("arena byte win too small: session %dB/op vs module %dB/op", sessBytes, modBytes)
	}
}

func TestConcurrentSessionsShareModule(t *testing.T) {
	// >= 4 goroutines, one session each, over one shared module with the
	// custom thread pool — the scenario the compile-time pool construction
	// and read-only weight sharing exist for. Run under -race in CI.
	m := sessionModule(t, 4)
	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(7, 1)
	want, err := m.Run(in)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 6
	const runsEach = 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := m.NewSession()
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < runsEach; i++ {
				outs, err := s.Run(context.Background(), in)
				if err != nil {
					errs <- err
					return
				}
				if !tensor.BitEqual(want[0], outs[0]) {
					errs <- errors.New("concurrent session output diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// winogradModule compiles TinyResNet at OptGlobalSearch and asserts the
// search actually scheduled winograd convolutions (otherwise the tests built
// on it would silently stop covering the winograd execution path).
func winogradModule(t *testing.T, threads int) *Module {
	t.Helper()
	m, err := Compile(models.TinyResNet(4), skylake(), Options{
		Level: OptGlobalSearch, Threads: threads,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	wino := 0
	for _, n := range m.Graph.Convs() {
		if n.Sched.Algorithm == machine.AlgoWinograd {
			wino++
		}
	}
	if wino == 0 {
		t.Fatal("global search scheduled no winograd convolutions on tiny-resnet")
	}
	return m
}

func TestConcurrentWinogradSessions(t *testing.T) {
	// Concurrent sessions over one winograd-planned module, run under -race
	// in CI: the shared pre-transformed U weights are read-only, and each
	// session owns its transform scratch, so nothing may race.
	m := winogradModule(t, 4)
	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(23, 1)
	want, err := m.Run(in)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 6
	const runsEach = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := m.NewSession()
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < runsEach; i++ {
				outs, err := s.Run(context.Background(), in)
				if err != nil {
					errs <- err
					return
				}
				if !tensor.BitEqual(want[0], outs[0]) {
					errs <- errors.New("concurrent winograd session output diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestWinogradSessionArenaReuse(t *testing.T) {
	// The winograd scratch comes from the session arena, so steady-state
	// execution must allocate no more than the direct path's closure change.
	m := winogradModule(t, 1)
	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(5, 1)
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Run(ctx, in); err != nil {
		t.Fatal(err)
	}
	sessAllocs := testing.AllocsPerRun(10, func() {
		if _, err := s.Run(ctx, in); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(2 * len(m.program)); sessAllocs > limit {
		t.Fatalf("winograd session allocs/op = %v, want <= %v (program has %d nodes)", sessAllocs, limit, len(m.program))
	}
}

// TestWeightStationaryWinogradSession covers the Winograd walk the tiny
// models never reach: a 3x3 convolution with more output channels than 2x2
// output tiles (64 channels at 8x8, 16 tiles) takes the weight-stationary
// walk, whose planned scratch holds V and M for every tile. A session must
// compute Module.Run's bits, stay within the other sessions' allocation limit
// and allocate no scratch while it runs.
func TestWeightStationaryWinogradSession(t *testing.T) {
	const c, hw, tiles = 64, 8, 16
	b := graph.NewBuilder("winograd-weight-stationary", 7)
	x := b.Input(c, hw, hw)
	y := b.ConvBNReLU(x, c, 3, 1, 1)
	y = b.ReLU(b.Add(b.BatchNorm(b.Conv(y, c, 3, 1, 1)), x))
	g := b.Finish(b.Dense(b.Flatten(b.GlobalAvgPool(y)), 10))
	pf := &PlanFile{}
	for _, n := range g.Convs() {
		pf.Entries = append(pf.Entries, PlanEntry{
			Conv: n.Name, Layout: "nchwc", ICBlock: 16, OCBlock: 16, RegN: 8, Algorithm: machine.AlgoWinograd.String(),
		})
	}
	m, err := CompileWithPlan(g, skylake(), pf, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	// V and M of every tile: 16 components × 16 tiles × (64 in + 64 out).
	const winoElems = 16 * tiles * (c + c)
	wino := 0
	for i, n := range m.program {
		if n.Op == graph.OpConv2D {
			if got := m.plan.steps[i].wino.elems; got != winoElems {
				t.Fatalf("%v: planned winograd scratch of %d floats, want the weight-stationary walk's %d", n, got, winoElems)
			}
			wino++
		}
	}
	if wino != 2 {
		t.Fatalf("%d winograd convolutions in the program, want 2", wino)
	}

	in := tensor.New(tensor.NCHW(), 1, c, hw, hw)
	in.FillRandom(17, 1)
	want, err := m.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		got, err := s.Run(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.BitEqual(want[0], got[0]) {
			t.Fatalf("run %d: session output diverges from Module.Run", i)
		}
	}
	sessAllocs := testing.AllocsPerRun(10, func() {
		if _, err := s.Run(ctx, in); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(2 * len(m.program)); sessAllocs > limit {
		t.Fatalf("session allocs/op = %v, want <= %v (program has %d nodes)", sessAllocs, limit, len(m.program))
	}
	const reps = 10
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		if _, err := s.Run(ctx, in); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / reps; perRun >= 4*winoElems {
		t.Fatalf("session allocates %d B per run, at least one winograd scratch (%d B): the scratch is not the arena's", perRun, 4*winoElems)
	}
}

func TestSessionContextCancellation(t *testing.T) {
	m := sessionModule(t, 1)
	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(3, 1)
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Run(ctx, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: got %v, want context.Canceled", err)
	}
	// The session must recover cleanly after a cancelled run.
	outs, err := s.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.BitEqual(want[0], outs[0]) {
		t.Fatal("post-cancellation run diverged")
	}
}

// stepCtx cancels after a fixed number of Err polls. The session polls
// ctx.Err once per program step, so a budget below the step count makes the
// cancellation land deterministically in the middle of an inference.
type stepCtx struct {
	context.Context
	remaining int
}

func (c *stepCtx) Err() error {
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

// TestSessionRunMidInferenceCancellation: a cancellation landing after half
// the program's steps stops the run with the ctx cause, and the session's
// next Run is bit-identical to a fresh Module.Run: the steps that did run
// leave nothing behind that changes a later answer.
func TestSessionRunMidInferenceCancellation(t *testing.T) {
	m := sessionModule(t, 1)
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	first := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	first.FillRandom(80, 1)
	ctx := &stepCtx{Context: context.Background(), remaining: len(m.program) / 2}
	if _, err := s.Run(ctx, first); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ctx.remaining != 0 {
		t.Fatalf("run stopped with %d polls of budget left, want 0 (mid-inference)", ctx.remaining)
	}

	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(81, 1)
	got, err := s.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.BitEqual(want[0], got[0]) {
		t.Fatal("run after a mid-inference cancellation diverges from Module.Run")
	}
}

func TestSessionRejectsBadInput(t *testing.T) {
	m := sessionModule(t, 1)
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), tensor.New(tensor.NCHW(), 1, 3, 8, 8)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestSessionRefusedOnPredictOnly(t *testing.T) {
	m, err := Compile(models.TinyCNN(1), skylake(), Options{Level: OptTransformElim, NoPrepack: true})
	if err != nil {
		t.Fatal(err)
	}
	if !m.PredictOnly() {
		t.Fatal("module must report PredictOnly")
	}
	if _, err := m.NewSession(); err == nil {
		t.Fatal("prediction-only module must refuse sessions")
	}
}

func TestSessionAcrossLevelsAndModels(t *testing.T) {
	// The session path must agree with Module.Run across every optimization
	// level and model family the arena has to handle: residual adds
	// (tiny-resnet), blocked concats (tiny-densenet), per-conv transforms
	// (layout-opt mode), and the plain NCHW baseline.
	builders := map[string]func(uint64) *graph.Graph{
		"tiny-cnn":      models.TinyCNN,
		"tiny-resnet":   models.TinyResNet,
		"tiny-densenet": models.TinyDenseNet,
	}
	levels := []OptLevel{OptNone, OptLayout, OptTransformElim, OptGlobalSearch}
	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(17, 1)
	for name, mk := range builders {
		for _, level := range levels {
			m, err := Compile(mk(4), skylake(), Options{Level: level, Threads: 1})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, level, err)
			}
			want, err := m.Run(in)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, level, err)
			}
			s, err := m.NewSession()
			if err != nil {
				t.Fatalf("%s/%v: %v", name, level, err)
			}
			got, err := s.Run(context.Background(), in)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, level, err)
			}
			if !tensor.BitEqual(want[0], got[0]) {
				t.Fatalf("%s/%v: session output diverges from Module.Run", name, level)
			}
		}
	}
}

func TestSessionSSD(t *testing.T) {
	// The SSD head's output size is data-dependent, so its arena slot stays
	// dynamic; the session must still execute it (and everything upstream)
	// correctly, twice in a row.
	b := graph.NewBuilder("sess-ssd", 21)
	x := b.Input(3, 64, 64)
	x = b.ConvBNReLU(x, 16, 3, 2, 1)
	s0 := b.ConvBNReLU(x, 32, 3, 2, 1)
	attrs := graph.SSDHeadAttrs{
		NumClasses: 4,
		Sizes:      [][]float32{{0.2, 0.3}},
		Ratios:     [][]float32{{1, 2, 0.5}},
	}
	attrs.Detection.ScoreThresh = 0.1
	attrs.Detection.NMSThresh = 0.45
	attrs.Detection.NMSTopK = 100
	attrs.Detection.Variances = [4]float32{0.1, 0.1, 0.2, 0.2}
	per := 4
	cls := b.Conv(s0, per*(attrs.NumClasses+1), 3, 1, 1)
	loc := b.Conv(s0, per*4, 3, 1, 1)
	g := b.Finish(b.SSDHead(attrs, cls, loc))

	m, err := Compile(g, skylake(), Options{Level: OptTransformElim, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(tensor.NCHW(), 1, 3, 64, 64)
	in.FillRandom(7, 1)
	want, err := m.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := s.Run(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.BitEqual(want[0], got[0]) {
			t.Fatalf("run %d: SSD session diverges from Module.Run", i)
		}
	}
}
