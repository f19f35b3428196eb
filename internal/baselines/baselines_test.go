package baselines

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/models"
)

// Shape-level assertions against Table 2: winners per architecture, the
// reported speedup bands, and the documented anomalies. These are the
// success criteria from DESIGN.md.

func mustPredict(t *testing.T, e Engine, model string, tgt *machine.Target) float64 {
	t.Helper()
	p, err := Predict(e, model, tgt, 0)
	if err != nil {
		t.Fatalf("Predict(%s, %s, %s): %v", e, model, tgt.Name, err)
	}
	if p.Seconds <= 0 {
		t.Fatalf("non-positive latency for %s/%s", e, model)
	}
	return p.Seconds
}

func TestAvailability(t *testing.T) {
	arm := machine.ARMCortexA72()
	if Available(EngineOpenVINO, arm) {
		t.Fatal("OpenVINO must not be available on ARM (it relies on MKL-DNN)")
	}
	if _, err := Predict(EngineOpenVINO, "resnet-18", arm, 0); err == nil {
		t.Fatal("expected error predicting OpenVINO on ARM")
	}
	for _, e := range Engines() {
		if !Available(e, machine.IntelSkylakeC5()) {
			t.Fatalf("%s must be available on Intel", e)
		}
	}
}

func TestNeoCPUWinsOnARM(t *testing.T) {
	// "all 15 models on ARM Cortex A72 CPUs".
	tgt := machine.ARMCortexA72()
	for _, model := range models.Names() {
		neo := mustPredict(t, EngineNeoCPU, model, tgt)
		for _, e := range []Engine{EngineMXNet, EngineTensorFlow} {
			if b := mustPredict(t, e, model, tgt); b <= neo {
				t.Errorf("ARM %s: %s (%.1fms) beats NeoCPU (%.1fms)", model, e, b*1000, neo*1000)
			}
		}
	}
}

func TestNeoCPUSpeedupBandOnARM(t *testing.T) {
	// Paper: 2.05-3.45x over the best baseline on ARM. Allow a slightly
	// wider band for the simulator.
	tgt := machine.ARMCortexA72()
	for _, model := range models.Names() {
		neo := mustPredict(t, EngineNeoCPU, model, tgt)
		best := mustPredict(t, EngineMXNet, model, tgt)
		if tf := mustPredict(t, EngineTensorFlow, model, tgt); tf < best {
			best = tf
		}
		ratio := best / neo
		if ratio < 1.6 || ratio > 4.5 {
			t.Errorf("ARM %s: speedup %.2fx outside [1.6, 4.5]", model, ratio)
		}
	}
}

func TestNeoCPUCompetitiveOnIntel(t *testing.T) {
	// Paper: 0.94-1.15x of the best baseline on Intel — i.e. roughly tied
	// or better, never catastrophically worse.
	tgt := machine.IntelSkylakeC5()
	for _, model := range models.Names() {
		neo := mustPredict(t, EngineNeoCPU, model, tgt)
		best := 1e9
		for _, e := range []Engine{EngineMXNet, EngineTensorFlow, EngineOpenVINO} {
			if model == "ssd-resnet-50" && e == EngineOpenVINO {
				continue // OpenVINO's SSD number excludes the multibox head
			}
			if b := mustPredict(t, e, model, tgt); b < best {
				best = b
			}
		}
		ratio := best / neo
		if ratio < 0.9 {
			t.Errorf("Intel %s: NeoCPU %.2fx slower than best baseline", model, 1/ratio)
		}
		if ratio > 2.2 {
			t.Errorf("Intel %s: NeoCPU win %.2fx implausibly large for Intel", model, ratio)
		}
	}
}

func TestOpenVINOVGGOutlier(t *testing.T) {
	// Table 2a: OpenVINO VGG-16 is ~7.7x slower than NeoCPU while its
	// ResNet numbers are competitive.
	tgt := machine.IntelSkylakeC5()
	ovVGG := mustPredict(t, EngineOpenVINO, "vgg-16", tgt)
	neoVGG := mustPredict(t, EngineNeoCPU, "vgg-16", tgt)
	if ovVGG/neoVGG < 5 {
		t.Errorf("OpenVINO VGG outlier missing: ratio %.1f", ovVGG/neoVGG)
	}
	ovR50 := mustPredict(t, EngineOpenVINO, "resnet-50", tgt)
	neoR50 := mustPredict(t, EngineNeoCPU, "resnet-50", tgt)
	if ovR50/neoR50 > 2 {
		t.Errorf("OpenVINO ResNet-50 should be competitive, ratio %.1f", ovR50/neoR50)
	}
}

func TestOpenVINOAMDOutliers(t *testing.T) {
	// Table 2b: ResNet-101/152 and DenseNet-161/169/201 blow up on AMD
	// while ResNet-50 and DenseNet-121 stay competitive.
	tgt := machine.AMDEpycM5a()
	broken := []string{"resnet-101", "resnet-152", "densenet-161", "densenet-169", "densenet-201"}
	for _, model := range broken {
		ov := mustPredict(t, EngineOpenVINO, model, tgt)
		neo := mustPredict(t, EngineNeoCPU, model, tgt)
		if ov/neo < 8 {
			t.Errorf("AMD %s: OpenVINO outlier missing (ratio %.1f)", model, ov/neo)
		}
	}
	for _, model := range []string{"resnet-50", "densenet-121"} {
		ov := mustPredict(t, EngineOpenVINO, model, tgt)
		neo := mustPredict(t, EngineNeoCPU, model, tgt)
		if ov/neo > 2 {
			t.Errorf("AMD %s: OpenVINO should be competitive (ratio %.1f)", model, ov/neo)
		}
	}
}

func TestTensorFlowSSDPenalty(t *testing.T) {
	// Table 2: TensorFlow's SSD latency is an order of magnitude above
	// MXNet's on x86 (dynamic branching).
	for _, tgt := range []*machine.Target{machine.IntelSkylakeC5(), machine.AMDEpycM5a()} {
		tf := mustPredict(t, EngineTensorFlow, "ssd-resnet-50", tgt)
		mx := mustPredict(t, EngineMXNet, "ssd-resnet-50", tgt)
		if tf/mx < 5 {
			t.Errorf("%s: TF SSD penalty missing (ratio %.1f)", tgt.Name, tf/mx)
		}
	}
}

func TestOpenVINOSSDExcludesHead(t *testing.T) {
	// The asterisk: OpenVINO's SSD measurement excludes multibox detection,
	// so it can undercut NeoCPU without actually being faster end to end.
	tgt := machine.IntelSkylakeC5()
	ov := mustPredict(t, EngineOpenVINO, "ssd-resnet-50", tgt)
	neo := mustPredict(t, EngineNeoCPU, "ssd-resnet-50", tgt)
	// The asterisked number looks competitive with NeoCPU (paper: 30.25* vs
	// 31.48) even though it omits real work.
	if ov > neo*1.15 {
		t.Errorf("OpenVINO SSD (head excluded, %.1fms) should look competitive with NeoCPU (%.1fms)",
			ov*1000, neo*1000)
	}
	// And the exclusion must actually remove a measurable head cost.
	mx := mustPredict(t, EngineMXNet, "ssd-resnet-50", tgt)
	if ov >= mx {
		t.Errorf("head-excluded OpenVINO (%.1fms) should beat MXNet's full measurement (%.1fms)",
			ov*1000, mx*1000)
	}
}

func TestMXNetWorseThanTFOnARM(t *testing.T) {
	// "MXNet performed worse than TensorFlow on ARM due to the scalability
	// issue."
	tgt := machine.ARMCortexA72()
	for _, model := range []string{"resnet-50", "inception-v3", "vgg-16"} {
		mx := mustPredict(t, EngineMXNet, model, tgt)
		tf := mustPredict(t, EngineTensorFlow, model, tgt)
		if mx <= tf {
			t.Errorf("ARM %s: MXNet (%.0fms) should trail TensorFlow (%.0fms)", model, mx*1000, tf*1000)
		}
	}
}

func TestMXNetARMScalabilityCap(t *testing.T) {
	tgt := machine.ARMCortexA72()
	if got := effectiveThreads(EngineMXNet, tgt, 16); got != armScalabilityCap {
		t.Fatalf("MXNet/ARM threads = %d, want cap %d", got, armScalabilityCap)
	}
	if got := effectiveThreads(EngineTensorFlow, tgt, 16); got != 16 {
		t.Fatalf("TF/ARM threads = %d, want 16", got)
	}
	if got := effectiveThreads(EngineMXNet, machine.IntelSkylakeC5(), 0); got != 18 {
		t.Fatalf("MXNet/Intel default threads = %d, want 18", got)
	}
}

func TestPredictMemoized(t *testing.T) {
	tgt := machine.IntelSkylakeC5()
	a, err := Predict(EngineMXNet, "resnet-18", tgt, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Predict(EngineMXNet, "resnet-18", tgt, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seconds != b.Seconds {
		t.Fatal("memoized prediction must be identical")
	}
	if a.Threads != 4 {
		t.Fatalf("threads = %d", a.Threads)
	}
}

func TestThreadScalingShape(t *testing.T) {
	// Figure 4a's qualitative shape on ResNet-50/Skylake: NeoCPU-pool
	// dominates NeoCPU-OMP which dominates the library baselines, and
	// throughput grows with threads.
	tgt := machine.IntelSkylakeC5()
	model := "resnet-50"
	poolPrev := 0.0
	for _, n := range []int{1, 4, 9, 18} {
		pool, err := PredictOnBackend(EngineNeoCPU, model, tgt, n, machine.BackendPool)
		if err != nil {
			t.Fatal(err)
		}
		ips := 1 / pool.Seconds
		if ips <= poolPrev {
			t.Fatalf("pool throughput must grow with threads: %d -> %.1f", n, ips)
		}
		poolPrev = ips
	}
	pool, _ := PredictOnBackend(EngineNeoCPU, model, tgt, 18, machine.BackendPool)
	omp, _ := PredictOnBackend(EngineNeoCPU, model, tgt, 18, machine.BackendOMP)
	mx, _ := Predict(EngineMXNet, model, tgt, 18)
	if !(pool.Seconds < omp.Seconds && omp.Seconds < mx.Seconds) {
		t.Fatalf("expected pool < omp < mxnet at 18 threads: %v %v %v",
			pool.Seconds, omp.Seconds, mx.Seconds)
	}
}

func TestUnknownModelRejected(t *testing.T) {
	_, err := Predict(EngineNeoCPU, "lenet", machine.IntelSkylakeC5(), 0)
	if err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Fatalf("expected unknown-model error, got %v", err)
	}
}
