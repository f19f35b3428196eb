package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/schedule"
	"repro/internal/search"
	"repro/internal/tensor"
)

func skylake() *machine.Target { return machine.IntelSkylakeC5() }

func runModel(t *testing.T, g *graph.Graph, level OptLevel, threads int, backend machine.ThreadBackend) []*tensor.Tensor {
	t.Helper()
	tgt := skylake()
	m, err := Compile(g, tgt, Options{Level: level, Threads: threads, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	in := tensor.New(tensor.NCHW(), g.Input.OutShape.Dims...)
	in.FillRandom(99, 1)
	outs, err := m.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

// TestOptLevelsAgree is the central correctness property: every optimization
// level computes the same function ("since our optimization does not change
// the semantics of the model, we do not expect any change of the model
// output", Section 4).
func TestOptLevelsAgree(t *testing.T) {
	builders := map[string]func(uint64) *graph.Graph{
		"tiny-cnn":      models.TinyCNN,
		"tiny-resnet":   models.TinyResNet,
		"tiny-densenet": models.TinyDenseNet,
		"tiny-vgg":      models.TinyVGG,
	}
	for name, mk := range builders {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			ref := runModel(t, mk(4), OptNone, 1, machine.BackendSerial)[0]
			for _, level := range []OptLevel{OptLayout, OptTransformElim, OptGlobalSearch} {
				got := runModel(t, mk(4), level, 1, machine.BackendSerial)[0]
				if !tensor.AllClose(ref, got, 1e-4) {
					t.Fatalf("%v output diverges from baseline: max diff %g",
						level, tensor.MaxAbsDiff(ref, got))
				}
			}
		})
	}
}

func TestThreadedExecutionMatchesSerial(t *testing.T) {
	ref := runModel(t, models.TinyResNet(8), OptTransformElim, 1, machine.BackendSerial)[0]
	pool := runModel(t, models.TinyResNet(8), OptTransformElim, 4, machine.BackendPool)[0]
	omp := runModel(t, models.TinyResNet(8), OptTransformElim, 4, machine.BackendOMP)[0]
	if tensor.MaxAbsDiff(ref, pool) != 0 {
		t.Fatal("thread pool execution must be bit-identical to serial")
	}
	if tensor.MaxAbsDiff(ref, omp) != 0 {
		t.Fatal("OMP-style execution must be bit-identical to serial")
	}
}

func TestFusionPreservesSemantics(t *testing.T) {
	tgt := skylake()
	mkOut := func(disableFusion bool) *tensor.Tensor {
		g := models.TinyResNet(12)
		m, err := Compile(g, tgt, Options{
			Level: OptTransformElim, Threads: 1,
			Backend: machine.BackendSerial, DisableFusion: disableFusion,
		})
		if err != nil {
			t.Fatal(err)
		}
		in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
		in.FillRandom(5, 1)
		outs, err := m.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		return outs[0]
	}
	fused, unfused := mkOut(false), mkOut(true)
	if !tensor.AllClose(fused, unfused, 1e-5) {
		t.Fatalf("fusion changed semantics: %g", tensor.MaxAbsDiff(fused, unfused))
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	g := models.TinyCNN(1)
	m, err := Compile(g, skylake(), Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(tensor.New(tensor.NCHW(), 1, 3, 16, 16)); err == nil {
		t.Fatal("expected shape error")
	}
	if _, err := m.Run(tensor.New(tensor.NHWC(), 1, 32, 32, 3)); err == nil {
		t.Fatal("expected layout error")
	}
}

func TestSoftmaxOutputIsDistribution(t *testing.T) {
	out := runModel(t, models.TinyCNN(3), OptTransformElim, 2, machine.BackendPool)[0]
	var sum float64
	for _, v := range out.Data {
		if v < 0 || v > 1 {
			t.Fatalf("probability out of range: %v", v)
		}
		sum += float64(v)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestPredictLatencyOrdering(t *testing.T) {
	// Table 3's monotone improvement: baseline > layout opt > transform
	// elim >= global search, on a real model's structure.
	tgt := skylake()
	lat := map[OptLevel]float64{}
	for _, level := range []OptLevel{OptNone, OptLayout, OptTransformElim, OptGlobalSearch} {
		g := models.MustBuild("resnet-18", 2)
		m, err := Compile(g, tgt, Options{Level: level, Search: search.Options{MaxCands: 8}})
		if err != nil {
			t.Fatal(err)
		}
		lat[level] = m.PredictLatency(PredictConfig{})
	}
	if !(lat[OptNone] > lat[OptLayout] && lat[OptLayout] > lat[OptTransformElim]) {
		t.Fatalf("latency not monotone: %v", lat)
	}
	if lat[OptGlobalSearch] > lat[OptTransformElim]*1.001 {
		t.Fatalf("global search (%v) must not lose to uniform plan (%v)",
			lat[OptGlobalSearch], lat[OptTransformElim])
	}
	// Layout optimization dominates (Section 4.2.1 reports 4-8x).
	speedup := lat[OptNone] / lat[OptLayout]
	if speedup < 3 || speedup > 10 {
		t.Fatalf("layout-opt speedup = %.2f, want within [3, 10]", speedup)
	}
}

func TestPredictLatencyThreadScaling(t *testing.T) {
	g := models.MustBuild("resnet-50", 2)
	m, err := Compile(g, skylake(), Options{Level: OptTransformElim})
	if err != nil {
		t.Fatal(err)
	}
	t1 := m.PredictLatency(PredictConfig{Threads: 1})
	t18 := m.PredictLatency(PredictConfig{Threads: 18, Backend: machine.BackendPool})
	if t18 >= t1 {
		t.Fatal("more threads must predict lower latency")
	}
	sp := t1 / t18
	if sp < 6 || sp > 18 {
		t.Fatalf("18-thread speedup = %.1f, want substantial but sub-linear", sp)
	}
	// OMP pays more region overhead at high thread counts.
	omp := m.PredictLatency(PredictConfig{Threads: 18, Backend: machine.BackendOMP})
	if omp <= t18 {
		t.Fatalf("OMP (%v) must predict slower than the custom pool (%v)", omp, t18)
	}
}

func TestTransformCountsAcrossLevels(t *testing.T) {
	tgt := skylake()
	counts := map[OptLevel]int{}
	for _, level := range []OptLevel{OptNone, OptLayout, OptTransformElim} {
		g := models.MustBuild("resnet-18", 2)
		m, err := Compile(g, tgt, Options{Level: level})
		if err != nil {
			t.Fatal(err)
		}
		counts[level] = m.TransformCount()
	}
	if counts[OptNone] != 0 {
		t.Fatalf("NCHW baseline has %d transforms, want 0", counts[OptNone])
	}
	if counts[OptLayout] <= counts[OptTransformElim] {
		t.Fatalf("library mode (%d) must pay more transforms than elimination (%d)",
			counts[OptLayout], counts[OptTransformElim])
	}
	// ResNet-18 has 20 convs: library mode pays roughly 2 transforms per
	// conv.
	if counts[OptLayout] < 20 {
		t.Fatalf("library mode transforms = %d, want >= one per conv", counts[OptLayout])
	}
	if counts[OptTransformElim] > 4 {
		t.Fatalf("elimination left %d transforms, want <= 4", counts[OptTransformElim])
	}
}

func TestSSDCompilesAndPredicts(t *testing.T) {
	g := models.MustBuild("ssd-resnet-50", 2)
	m, err := Compile(g, skylake(), Options{
		Level:  OptGlobalSearch,
		Search: search.Options{MaxCands: 4, ForcePBQP: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Search == nil || m.Search.Algorithm != search.AlgoPBQP {
		t.Fatalf("SSD must use the PBQP approximation, got %+v", m.Search)
	}
	lat := m.PredictLatency(PredictConfig{})
	if lat <= 0 {
		t.Fatalf("latency = %v", lat)
	}
}

func TestTinySSDRunsEndToEnd(t *testing.T) {
	// A miniature SSD exercises the head executor for real (and, with a
	// 2-thread pool, its independent head convs on pooled kernels).
	g := models.TinySSD(21)
	m, err := Compile(g, skylake(), Options{Level: OptTransformElim, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	in := tensor.New(tensor.NCHW(), 1, 3, 64, 64)
	in.FillRandom(7, 1)
	outs, err := m.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	det := outs[0]
	if det.Rank() != 3 || det.Shape[2] != 6 {
		t.Fatalf("detection tensor shape %v", det.Shape)
	}
	const scoreThresh = 0.1 // models.TinySSD's detection threshold
	for i := 0; i < det.Shape[1]; i++ {
		score := det.Data[i*6+1]
		if score < scoreThresh || score > 1 {
			t.Fatalf("detection %d score %v out of range", i, score)
		}
	}
}

func TestGlobalSearchDBReuse(t *testing.T) {
	db := schedule.NewDB()
	g := models.MustBuild("resnet-18", 2)
	if _, err := Compile(g, skylake(), Options{Level: OptGlobalSearch, Search: search.Options{MaxCands: 4, DB: db}}); err != nil {
		t.Fatal(err)
	}
	mid := db.Len()
	if mid == 0 {
		t.Fatal("global search must populate the schedule DB")
	}
	// Compiling the same model again must not add workloads: the per-
	// workload results are memoized (the paper's database of searched
	// convolution workloads).
	g2 := models.MustBuild("resnet-18", 3)
	if _, err := Compile(g2, skylake(), Options{Level: OptGlobalSearch, Search: search.Options{MaxCands: 4, DB: db}}); err != nil {
		t.Fatal(err)
	}
	if db.Len() != mid {
		t.Fatal("identical workloads must hit the schedule DB")
	}
	// The process-wide registry hands back the same DB per configuration.
	a := SharedScheduleDB(skylake(), 18, machine.BackendPool)
	b := SharedScheduleDB(skylake(), 18, machine.BackendPool)
	c := SharedScheduleDB(skylake(), 1, machine.BackendSerial)
	if a != b || a == c {
		t.Fatal("shared DB registry must key by execution configuration")
	}
}

func TestInt8ModuleCloseToFP32(t *testing.T) {
	// The Section 6 INT8 extension: quantized inference must track the fp32
	// module within quantization noise while using the same graph plan.
	tgt := skylake()
	for _, mk := range []func(uint64) *graph.Graph{models.TinyCNN, models.TinyResNet, models.TinyDenseNet} {
		in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
		in.FillRandom(31, 1)

		f32, err := Compile(mk(9), tgt, Options{Level: OptTransformElim, Threads: 1, Backend: machine.BackendSerial})
		if err != nil {
			t.Fatal(err)
		}
		i8, err := Compile(mk(9), tgt, Options{Level: OptTransformElim, Threads: 1, Backend: machine.BackendSerial, Int8: true})
		if err != nil {
			t.Fatal(err)
		}
		if !i8.Int8 {
			t.Fatal("module must be marked Int8")
		}
		a, err := f32.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		b, err := i8.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		// Outputs are post-softmax probabilities: compare absolutely.
		if d := tensor.MaxAbsDiff(a[0], b[0]); d > 0.05 {
			t.Fatalf("int8 output diverges from fp32 by %g", d)
		}
	}
}

func TestInt8PredictsFaster(t *testing.T) {
	tgt := skylake()
	g1 := models.MustBuild("resnet-18", 2)
	f32, err := Compile(g1, tgt, Options{Level: OptTransformElim, NoPrepack: true})
	if err != nil {
		t.Fatal(err)
	}
	g2 := models.MustBuild("resnet-18", 2)
	i8, err := Compile(g2, tgt, Options{Level: OptTransformElim, NoPrepack: true, Int8: true})
	if err != nil {
		t.Fatal(err)
	}
	tf := f32.PredictLatency(PredictConfig{})
	ti := i8.PredictLatency(PredictConfig{})
	if ti >= tf {
		t.Fatalf("int8 predicted %v, must beat fp32 %v", ti, tf)
	}
	// Bounded by the ISA factor (2x on modeled Skylake) plus memory effects.
	if tf/ti > 2.2 {
		t.Fatalf("int8 speedup %.2f implausibly high", tf/ti)
	}
}

func TestBatchedInference(t *testing.T) {
	// Batch-N execution must equal N independent batch-1 runs ("we just
	// need to add the N value to our configuration tuple", Section 4).
	tgt := skylake()
	mkBatched := func(n int) *graph.Graph {
		b := graph.NewBuilder("batched", 3)
		x := b.InputBatch(n, 3, 16, 16)
		x = b.ConvBNReLU(x, 8, 3, 1, 1)
		x = b.MaxPool(x, 2, 2, 0)
		x = b.ConvBNReLU(x, 16, 3, 1, 1)
		x = b.GlobalAvgPool(x)
		x = b.Flatten(x)
		return b.Finish(b.Softmax(b.Dense(x, 4)))
	}

	single, err := Compile(mkBatched(1), tgt, Options{Level: OptTransformElim, Threads: 1, Backend: machine.BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := Compile(mkBatched(3), tgt, Options{Level: OptTransformElim, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()

	batchIn := tensor.New(tensor.NCHW(), 3, 3, 16, 16)
	batchIn.FillRandom(55, 1)
	bOut, err := batched.Run(batchIn)
	if err != nil {
		t.Fatal(err)
	}
	perImage := batchIn.NumElements() / 3
	perOut := bOut[0].NumElements() / 3
	for img := 0; img < 3; img++ {
		one := tensor.FromData(tensor.NCHW(), batchIn.Data[img*perImage:(img+1)*perImage], 1, 3, 16, 16)
		sOut, err := single.Run(one)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perOut; i++ {
			got := bOut[0].Data[img*perOut+i]
			want := sOut[0].Data[i]
			d := got - want
			if d < -1e-5 || d > 1e-5 {
				t.Fatalf("image %d output %d: batched %v vs single %v", img, i, got, want)
			}
		}
	}
}

func TestRunProfiled(t *testing.T) {
	g := models.TinyResNet(2)
	m, err := Compile(g, skylake(), Options{Level: OptTransformElim, Threads: 1, Backend: machine.BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(1, 1)
	outsRef, err := m.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	outs, prof, err := m.RunProfiled(in)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(outsRef[0], outs[0]) != 0 {
		t.Fatal("profiled run changed the output")
	}
	if prof.Total <= 0 || len(prof.Timings) == 0 {
		t.Fatalf("empty profile: %+v", prof)
	}
	byKind := prof.ByKind()
	if len(byKind) == 0 || byKind[0].Kind != graph.OpConv2D {
		t.Fatalf("convolution must dominate the profile, got %v", byKind)
	}
	if s := prof.String(); !strings.Contains(s, "conv2d") {
		t.Fatalf("profile rendering incomplete: %s", s)
	}
	// Profiled shape errors mirror Run's.
	if _, _, err := m.RunProfiled(tensor.New(tensor.NCHW(), 1, 3, 8, 8)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestNoPrepackModuleCannotRun(t *testing.T) {
	m, err := Compile(models.TinyCNN(1), skylake(), Options{Level: OptTransformElim, NoPrepack: true})
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	if _, err := m.Run(in); err == nil {
		t.Fatal("prediction-only module must refuse to Run")
	}
	if _, _, err := m.RunProfiled(in); err == nil {
		t.Fatal("prediction-only module must refuse to RunProfiled")
	}
	if m.PredictLatency(PredictConfig{}) <= 0 {
		t.Fatal("prediction must still work")
	}
}

func TestPlanSaveLoadRoundTrip(t *testing.T) {
	tgt := skylake()
	// Compile with global search and export the plan.
	orig, err := Compile(models.MustBuild("resnet-18", 2), tgt,
		Options{Level: OptGlobalSearch, Threads: 4, Search: search.Options{MaxCands: 6}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.SavePlan(&buf); err != nil {
		t.Fatal(err)
	}

	// Re-apply to a fresh graph of the same model: no search, same plan.
	pf, err := LoadPlan(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if pf.Model != "resnet-18" || pf.Target != tgt.Name {
		t.Fatalf("plan header wrong: %+v", pf)
	}
	replayed, err := CompileWithPlan(models.MustBuild("resnet-18", 2), tgt, pf, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	a := orig.PredictLatency(PredictConfig{})
	b := replayed.PredictLatency(PredictConfig{})
	if d := a - b; d < -1e-12 || d > 1e-12 {
		t.Fatalf("replayed plan latency %v != original %v", b, a)
	}
	if orig.TransformCount() != replayed.TransformCount() {
		t.Fatal("replayed plan has different transform structure")
	}

	// Outputs agree with a baseline module.
	in := tensor.New(tensor.NCHW(), 1, 3, 224, 224)
	in.FillRandom(1, 1)
	wantOut, err := orig.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	gotOut, err := replayed.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(wantOut[0], gotOut[0]) != 0 {
		t.Fatal("replayed module computes different outputs")
	}
	orig.Close()
	replayed.Close()
}

func TestWinogradPlanRoundTrip(t *testing.T) {
	tgt := skylake()
	orig, err := Compile(models.TinyResNet(3), tgt,
		Options{Level: OptGlobalSearch, Threads: 1, Backend: machine.BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	var buf bytes.Buffer
	if err := orig.SavePlan(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"algorithm": "winograd"`) {
		t.Fatalf("saved plan carries no winograd entry:\n%s", buf.String())
	}

	pf, err := LoadPlan(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := CompileWithPlan(models.TinyResNet(3), tgt, pf, Options{Threads: 1, Backend: machine.BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	// The algorithm choice must survive the round trip per convolution.
	algoByName := map[string]machine.ConvAlgorithm{}
	for _, n := range orig.Graph.Convs() {
		algoByName[n.Name] = n.Sched.Algorithm
	}
	winograd := 0
	for _, n := range replayed.Graph.Convs() {
		if n.Sched.Algorithm != algoByName[n.Name] {
			t.Fatalf("conv %q: algorithm %v after replay, want %v", n.Name, n.Sched.Algorithm, algoByName[n.Name])
		}
		if n.Sched.Algorithm == machine.AlgoWinograd {
			winograd++
		}
	}
	if winograd == 0 {
		t.Fatal("replayed plan lost every winograd schedule")
	}
	// And the replayed module must execute bit-identically.
	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(13, 1)
	want, err := orig.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := replayed.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(want[0], got[0]) != 0 {
		t.Fatal("replayed winograd module computes different outputs")
	}

	// Plans saved before the algorithm field existed (no "algorithm" keys)
	// must still load and default every convolution to the direct template.
	for i := range pf.Entries {
		pf.Entries[i].Algorithm = ""
	}
	direct, err := CompileWithPlan(models.TinyResNet(3), tgt, pf, Options{Threads: 1, Backend: machine.BackendSerial})
	if err != nil {
		t.Fatalf("plan without algorithm fields must load: %v", err)
	}
	defer direct.Close()
	for _, n := range direct.Graph.Convs() {
		if n.Sched.Algorithm != machine.AlgoDirect {
			t.Fatalf("conv %q: algorithm-less plan entry produced %v", n.Name, n.Sched.Algorithm)
		}
	}
	if _, err := direct.Run(in); err != nil {
		t.Fatal(err)
	}
}

func TestWinogradPlanValidation(t *testing.T) {
	tgt := skylake()
	m, err := Compile(models.TinyResNet(3), tgt,
		Options{Level: OptGlobalSearch, Threads: 1, Backend: machine.BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var buf bytes.Buffer
	if err := m.SavePlan(&buf); err != nil {
		t.Fatal(err)
	}
	load := func() *PlanFile {
		pf, err := LoadPlan(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return pf
	}

	// Winograd on a non-3x3 convolution (the 1x1 residual projection) must
	// be rejected at plan-apply time.
	non3x3 := ""
	for _, n := range m.Graph.Convs() {
		if n.Conv.KH != 3 {
			non3x3 = n.Name
			break
		}
	}
	if non3x3 == "" {
		t.Fatal("test model has no non-3x3 convolution")
	}
	pf := load()
	for i := range pf.Entries {
		if pf.Entries[i].Conv == non3x3 {
			pf.Entries[i].Algorithm = "winograd"
		}
	}
	if _, err := CompileWithPlan(models.TinyResNet(3), tgt, pf, Options{}); err == nil {
		t.Fatal("expected error scheduling winograd on a non-3x3 convolution")
	}

	// Unknown algorithm names fail loudly.
	pf = load()
	pf.Entries[0].Algorithm = "strassen"
	if _, err := CompileWithPlan(models.TinyResNet(3), tgt, pf, Options{}); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}

	// Winograd plans cannot drive an int8 module (no quantized kernel).
	pf = load()
	if _, err := CompileWithPlan(models.TinyResNet(3), tgt, pf, Options{Int8: true}); err == nil {
		t.Fatal("expected error applying a winograd plan to an int8 module")
	}
}

func TestDisableWinogradPinsDirect(t *testing.T) {
	m, err := Compile(models.TinyResNet(3), skylake(),
		Options{Level: OptGlobalSearch, Threads: 1, Backend: machine.BackendSerial, DisableWinograd: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, n := range m.Graph.Convs() {
		if n.Sched.Algorithm != machine.AlgoDirect {
			t.Fatalf("conv %q scheduled %v with winograd disabled", n.Name, n.Sched.Algorithm)
		}
	}
	// Int8 implies the same restriction (and must compile + run).
	q, err := Compile(models.TinyResNet(3), skylake(),
		Options{Level: OptGlobalSearch, Threads: 1, Backend: machine.BackendSerial, Int8: true})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for _, n := range q.Graph.Convs() {
		if n.Sched.Algorithm != machine.AlgoDirect {
			t.Fatalf("int8 conv %q scheduled %v", n.Name, n.Sched.Algorithm)
		}
	}
	in := tensor.New(tensor.NCHW(), 1, 3, 32, 32)
	in.FillRandom(2, 1)
	if _, err := q.Run(in); err != nil {
		t.Fatal(err)
	}
}

func TestPlanMismatchesFail(t *testing.T) {
	tgt := skylake()
	m, err := Compile(models.TinyCNN(1), tgt, Options{Level: OptGlobalSearch, Search: search.Options{MaxCands: 4}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.SavePlan(&buf); err != nil {
		t.Fatal(err)
	}
	pf, err := LoadPlan(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Wrong model: conv names will not match.
	if _, err := CompileWithPlan(models.TinyResNet(1), tgt, pf, Options{}); err == nil {
		t.Fatal("expected error applying plan to a different model")
	}
	// Wrong target.
	if _, err := CompileWithPlan(models.TinyCNN(1), machine.ARMCortexA72(), pf, Options{}); err == nil {
		t.Fatal("expected error applying plan to a different target")
	}
	// Corrupt JSON.
	if _, err := LoadPlan(bytes.NewBufferString("{nope")); err == nil {
		t.Fatal("expected decode error")
	}
	// Corrupt blocks.
	pf.Entries[0].ICBlock = 7 // does not divide 3 input channels
	pf.Entries[0].Layout = "nchwc"
	if _, err := CompileWithPlan(models.TinyCNN(1), tgt, pf, Options{}); err == nil {
		t.Fatal("expected error for non-dividing blocks")
	}
}
