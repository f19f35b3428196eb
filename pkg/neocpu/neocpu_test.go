package neocpu

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/tensor"
)

// smallCNN builds a quickly-executable classifier for facade tests.
func smallCNN(seed uint64) *graph.Graph {
	b := graph.NewBuilder("small-cnn", seed)
	x := b.Input(3, 32, 32)
	x = b.ConvBNReLU(x, 16, 3, 1, 1)
	x = b.MaxPool(x, 2, 2, 0)
	x = b.ConvBNReLU(x, 32, 3, 1, 1)
	x = b.GlobalAvgPool(x)
	x = b.Flatten(x)
	x = b.Dense(x, 10)
	return b.Finish(b.Softmax(x))
}

func TestParseLevel(t *testing.T) {
	for _, l := range Levels() {
		got, err := ParseLevel(l.String())
		if err != nil || got != l {
			t.Fatalf("ParseLevel(%q) = %v, %v", l.String(), got, err)
		}
	}
	if _, err := ParseLevel("nope"); !errors.Is(err, ErrUnknownLevel) {
		t.Fatalf("got %v, want ErrUnknownLevel", err)
	}
}

func TestParseTarget(t *testing.T) {
	names := TargetNames()
	if len(names) < 3 {
		t.Fatalf("too few targets: %v", names)
	}
	for _, name := range names {
		tgt, err := ParseTarget(name)
		if err != nil || tgt.Name != name {
			t.Fatalf("ParseTarget(%q) = %+v, %v", name, tgt, err)
		}
	}
	if _, err := ParseTarget("vax-11"); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("got %v, want ErrUnknownTarget", err)
	}
}

func TestTypedOptionErrors(t *testing.T) {
	if _, err := Compile("not-a-model"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("got %v, want ErrUnknownModel", err)
	}
	if _, err := Compile("resnet-18", WithTarget("not-a-target")); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("got %v, want ErrUnknownTarget", err)
	}
	if _, err := Compile("resnet-18", WithThreads(-1)); !errors.Is(err, ErrBadOption) {
		t.Fatalf("got %v, want ErrBadOption", err)
	}
	if _, err := CompileGraph(smallCNN(1), WithTargetSpec(nil)); !errors.Is(err, ErrBadOption) {
		t.Fatalf("got %v, want ErrBadOption", err)
	}
}

// TestThreadsOneMeansSerial pins the facade's side of the runtime rule:
// WithThreads(1) is one execution lane, both for a compiled engine and for
// one loaded from a bundle.
func TestThreadsOneMeansSerial(t *testing.T) {
	e, err := CompileGraph(models.TinyCNN(2), WithOptLevel(LevelTransformElim), WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Threads() != 1 {
		t.Fatalf("WithThreads(1) engine reports %d threads, want 1", e.Threads())
	}
	var buf bytes.Buffer
	if err := e.SaveBundle(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBundle(&buf, WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Threads() != 1 {
		t.Fatalf("WithThreads(1) loaded engine reports %d threads, want 1", loaded.Threads())
	}
}

func TestPredictOnlyEngine(t *testing.T) {
	e, err := Compile("resnet-18",
		WithTarget("arm-cortex-a72"),
		WithOptLevel(LevelTransformElim),
		WithPredictOnly(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !e.PredictOnly() {
		t.Fatal("engine must report PredictOnly")
	}
	if lat := e.PredictLatency(); lat <= 0 {
		t.Fatalf("predicted latency %v", lat)
	}
	if e.Target().Name != "arm-cortex-a72" {
		t.Fatalf("target %v", e.Target())
	}
	if got := e.InputShape(); len(got) != 4 || got[1] != 3 || got[2] != 224 {
		t.Fatalf("input shape %v", got)
	}
	if _, err := e.Run(e.NewInput()); !errors.Is(err, ErrPredictOnly) {
		t.Fatalf("Run: got %v, want ErrPredictOnly", err)
	}
	if _, _, err := e.RunProfiled(e.NewInput()); !errors.Is(err, ErrPredictOnly) {
		t.Fatalf("RunProfiled: got %v, want ErrPredictOnly", err)
	}
	if _, err := e.NewSession(); !errors.Is(err, ErrPredictOnly) {
		t.Fatalf("NewSession: got %v, want ErrPredictOnly", err)
	}
}

// TestCompileGraphWithoutWeights: CompileGraph of a shape-only graph, or of
// a graph an earlier CompileGraph already compiled, returns core.ErrNoWeights
// instead of panicking; a prediction-only compile of it still works.
func TestCompileGraphWithoutWeights(t *testing.T) {
	g, err := models.ResolveGraph("resnet-18", 42)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompileGraph(g); !errors.Is(err, core.ErrNoWeights) {
		t.Fatalf("shape-only graph: got %v, want core.ErrNoWeights", err)
	}
	if _, err := CompileGraph(g, WithPredictOnly()); err != nil {
		t.Fatal(err)
	}
	small := smallCNN(3)
	e, err := CompileGraph(small, WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if _, err := CompileGraph(small, WithThreads(1)); !errors.Is(err, core.ErrNoWeights) {
		t.Fatalf("graph compiled twice: got %v, want core.ErrNoWeights", err)
	}
}

func TestCompileGraphRunAndSession(t *testing.T) {
	e, err := CompileGraph(smallCNN(3),
		WithOptLevel(LevelGlobalSearch),
		WithThreads(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if e.Level() != LevelGlobalSearch {
		t.Fatalf("level %v", e.Level())
	}
	if s, ok := e.SearchStats(); !ok || s.Vars == 0 || s.Algorithm == "" {
		t.Fatalf("search stats %+v, %v", s, ok)
	}
	pre, post := e.Stats()
	if pre.Nodes <= post.Nodes || post.Convs != 2 {
		t.Fatalf("stats before %+v after %+v", pre, post)
	}
	// Packed convolutions keep only their weights' shapes, which is all the
	// parameter count reads: 16·3·3·3 + 32·16·3·3 + 32·10 weights, plus the
	// two folded conv biases (16 + 32) and the dense bias (10).
	if want := 432 + 4608 + 320 + 16 + 32 + 10; post.Params != want {
		t.Fatalf("%d params after compile, want %d", post.Params, want)
	}

	in := e.NewInput()
	in.FillRandom(5, 1)
	want, err := e.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := e.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.BitEqual(want[0], got[0]) {
		t.Fatal("session diverges from Run")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Run(ctx, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}

	var plan bytes.Buffer
	if err := e.SavePlan(&plan); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.String(), "\"entries\"") {
		t.Fatalf("plan JSON incomplete: %s", plan.String())
	}
}

func TestLevelsAgreeThroughFacade(t *testing.T) {
	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(9, 1)
	var ref *tensor.Tensor
	for _, level := range Levels() {
		e, err := CompileGraph(smallCNN(7), WithOptLevel(level), WithThreads(1))
		if err != nil {
			t.Fatalf("%v: %v", level, err)
		}
		outs, err := e.Run(in)
		if err != nil {
			t.Fatalf("%v: %v", level, err)
		}
		if ref == nil {
			ref = outs[0]
			continue
		}
		if !tensor.AllClose(ref, outs[0], 1e-4) {
			t.Fatalf("%v diverges from baseline by %g", level, tensor.MaxAbsDiff(ref, outs[0]))
		}
	}
}

func TestWithWinogradThroughFacade(t *testing.T) {
	// Default: the global search may schedule winograd; the plan records it.
	on, err := CompileGraph(smallCNN(7),
		WithOptLevel(LevelGlobalSearch), WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	defer on.Close()
	var planOn bytes.Buffer
	if err := on.SavePlan(&planOn); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(planOn.String(), `"algorithm": "winograd"`) {
		t.Fatalf("default compile scheduled no winograd conv:\n%s", planOn.String())
	}

	// WithWinograd(false) pins the direct template.
	off, err := CompileGraph(smallCNN(7),
		WithOptLevel(LevelGlobalSearch), WithThreads(1), WithWinograd(false))
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	var planOff bytes.Buffer
	if err := off.SavePlan(&planOff); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(planOff.String(), "winograd") {
		t.Fatalf("WithWinograd(false) still scheduled winograd:\n%s", planOff.String())
	}

	// Both engines must execute, and agree within winograd's fp32 transform
	// tolerance.
	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(3, 1)
	a, err := on.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := off.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(a[0], b[0], 1e-3) {
		t.Fatalf("winograd and direct engines disagree: %g", tensor.MaxAbsDiff(a[0], b[0]))
	}
}

// TestInterOpAndPlanStatsThroughFacade: PlanStats surfaces the execution
// plan of a branchy graph (levels, arena packing, no inter-op or hybrid
// levels), a session reports the engine's plan, and pool-backed execution is
// bit-identical to a serial lane.
func TestInterOpAndPlanStatsThroughFacade(t *testing.T) {
	branchy := func(seed uint64) *graph.Graph {
		b := graph.NewBuilder("branchy", seed)
		x := b.Input(3, 32, 32)
		x = b.ConvBNReLU(x, 16, 3, 1, 1)
		// Two independent towers share one dependency level.
		b1 := b.ConvBNReLU(x, 16, 3, 1, 1)
		b3 := b.ConvBNReLU(x, 16, 3, 1, 1)
		x = b.Concat(b1, b3)
		x = b.GlobalAvgPool(x)
		x = b.Flatten(x)
		x = b.Dense(x, 10)
		return b.Finish(b.Softmax(x))
	}
	// LevelTransformElim's uniform schedules do not depend on the thread
	// count, so the pooled and the serial engine run the same kernels.
	opts := []Option{WithOptLevel(LevelTransformElim), WithThreads(2)}
	pooled, err := CompileGraph(branchy(3), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer pooled.Close()
	serial, err := CompileGraph(branchy(3), append(opts, WithThreads(1))...)
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()

	st := pooled.PlanStats()
	if st.Levels == 0 || st.InterOpLevels != 0 || st.HybridLevels != 0 {
		t.Fatalf("every level must run intra-op, got %+v", st)
	}
	if st.ArenaBytes <= 0 || st.ArenaBytes > st.NaiveArenaBytes {
		t.Fatalf("implausible plan stats %+v", st)
	}

	sPool, err := pooled.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	sSerial, err := serial.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if sPool.PlanStats() != st {
		t.Fatal("session and engine must report the same plan")
	}
	if sPool.ArenaBytes() != st.ArenaBytes {
		t.Fatal("session arena must match the planned footprint")
	}
	in := pooled.NewInput()
	in.FillRandom(9, 1)
	a, err := sPool.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sSerial.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b[0].Data {
		if math.Float32bits(a[0].Data[i]) != math.Float32bits(b[0].Data[i]) {
			t.Fatalf("pooled output[%d] = %#x, serial %#x", i, math.Float32bits(a[0].Data[i]), math.Float32bits(b[0].Data[i]))
		}
	}
}

func TestRegistryCompileExecutes(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs a full ResNet-18 on the host")
	}
	e, err := Compile("resnet-18", WithOptLevel(LevelTransformElim), WithThreads(2), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sess, err := e.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	in := e.NewInput()
	in.FillRandom(1, 1)
	outs, err := sess.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range outs[0].Data {
		sum += float64(v)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestBundleThroughFacade(t *testing.T) {
	orig, err := CompileGraph(models.TinyCNN(1),
		WithOptLevel(LevelTransformElim), WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()

	var buf bytes.Buffer
	if err := orig.SaveBundle(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBundle(bytes.NewReader(buf.Bytes()), WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Level() != orig.Level() {
		t.Fatalf("loaded level=%v, original level=%v", loaded.Level(), orig.Level())
	}

	in := orig.NewInput()
	in.FillRandom(9, 1)
	want, err := orig.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want[0].Data {
		if got[0].Data[i] != want[0].Data[i] {
			t.Fatalf("output[%d]: loaded %v != original %v (must be bit-identical)",
				i, got[0].Data[i], want[0].Data[i])
		}
	}

	// Predict-only engines carry no packed weights and cannot be bundled.
	po, err := Compile("resnet-18", WithPredictOnly(), WithOptLevel(LevelTransformElim))
	if err != nil {
		t.Fatal(err)
	}
	if err := po.SaveBundle(&bytes.Buffer{}); !errors.Is(err, ErrPredictOnly) {
		t.Fatalf("predict-only SaveBundle: %v, want ErrPredictOnly", err)
	}
	// Garbage is rejected with the artifact layer's typed error, not a panic.
	if _, err := LoadBundle(strings.NewReader("not a bundle")); err == nil {
		t.Fatal("garbage bundle loaded")
	}
}

// TestInt8BundleRejectedThroughFacade: a quantized bundle saved by an
// earlier int8-capable build fails to load with artifact.ErrInt8Bundle.
func TestInt8BundleRejectedThroughFacade(t *testing.T) {
	raw, err := os.ReadFile("../../internal/core/testdata/int8_tiny-cnn.bundle")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBundle(bytes.NewReader(raw), WithThreads(1)); !errors.Is(err, artifact.ErrInt8Bundle) {
		t.Fatalf("int8 bundle: err = %v, want artifact.ErrInt8Bundle", err)
	}
}
