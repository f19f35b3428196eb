package machine

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestTargetPresets(t *testing.T) {
	sky := IntelSkylakeC5()
	if sky.Cores != 18 || sky.ISA != AVX512 || sky.VectorLanes != 16 || sky.NumVecRegs != 32 {
		t.Fatalf("skylake preset wrong: %+v", sky)
	}
	// 18 cores * 3 GHz * 16 lanes * 2 FMA * 2 flops = 3456 GFLOPS.
	if got := sky.PeakGFLOPS(); math.Abs(got-3456) > 1e-9 {
		t.Fatalf("skylake peak = %v, want 3456", got)
	}
	epyc := AMDEpycM5a()
	if epyc.Cores != 24 || epyc.ISA != AVX2 || epyc.VectorLanes != 8 {
		t.Fatalf("epyc preset wrong: %+v", epyc)
	}
	arm := ARMCortexA72()
	if arm.Cores != 16 || arm.ISA != NEON || arm.VectorLanes != 4 {
		t.Fatalf("a72 preset wrong: %+v", arm)
	}
	if len(AllTargets()) != 3 {
		t.Fatal("AllTargets must return 3 targets")
	}
}

func TestTargetByName(t *testing.T) {
	got, err := TargetByName("amd-epyc")
	if err != nil || got.ISA != AVX2 {
		t.Fatalf("TargetByName(amd-epyc) = %v, %v", got, err)
	}
	if _, err := TargetByName("sparc"); err == nil {
		t.Fatal("expected error for unknown target")
	}
}

func TestISAAndBackendStrings(t *testing.T) {
	if AVX512.String() != "AVX-512" || AVX2.String() != "AVX2" || NEON.String() != "NEON" {
		t.Fatal("ISA strings wrong")
	}
	if BackendPool.String() != "threadpool" || BackendOMP.String() != "openmp" || BackendSerial.String() != "serial" {
		t.Fatal("backend strings wrong")
	}
}

// resnetConv is a representative mid-network ResNet-50 convolution.
var resnetConv = ConvWorkload{
	InC: 128, InH: 28, InW: 28, OutC: 128, KH: 3, KW: 3,
	StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
}

func TestConvWorkloadGeometry(t *testing.T) {
	if resnetConv.OutH() != 28 || resnetConv.OutW() != 28 {
		t.Fatalf("output geometry wrong: %dx%d", resnetConv.OutH(), resnetConv.OutW())
	}
	wantFLOPs := 2.0 * 28 * 28 * 128 * 128 * 9
	if resnetConv.FLOPs() != wantFLOPs {
		t.Fatalf("FLOPs = %v, want %v", resnetConv.FLOPs(), wantFLOPs)
	}
	stride2 := ConvWorkload{InC: 3, InH: 224, InW: 224, OutC: 64, KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}
	if stride2.OutH() != 112 || stride2.OutW() != 112 {
		t.Fatalf("7x7/2 geometry wrong: %dx%d", stride2.OutH(), stride2.OutW())
	}
	if resnetConv.Key() == stride2.Key() {
		t.Fatal("distinct workloads must have distinct keys")
	}
}

func goodSchedule(t *Target) ConvSchedule {
	return ConvSchedule{
		Layout:  tensor.NCHWc(t.VectorLanes),
		ICBlock: t.VectorLanes, OCBlock: t.VectorLanes,
		RegN: t.FMALatency * t.FMAPerCycle,
	}
}

func TestBlockedBeatsNCHW(t *testing.T) {
	for _, tgt := range AllTargets() {
		blocked := tgt.ConvEfficiency(resnetConv, goodSchedule(tgt))
		nchw := tgt.ConvEfficiency(resnetConv, ConvSchedule{Layout: tensor.NCHW()})
		ratio := blocked / nchw
		// Section 4.2.1 measures 4-8x from layout optimization alone.
		if ratio < 3.5 || ratio > 9 {
			t.Errorf("%s: blocked/NCHW ratio = %.2f, want within [3.5, 9]", tgt.Name, ratio)
		}
	}
}

func winogradSchedule(t *Target) ConvSchedule {
	s := goodSchedule(t)
	s.Algorithm = AlgoWinograd
	s.RegN = 1
	return s
}

func TestWinogradViability(t *testing.T) {
	if !resnetConv.WinogradViable() {
		t.Fatal("3x3 stride-1 workload must be winograd-viable")
	}
	strided := resnetConv
	strided.StrideH, strided.StrideW = 2, 2
	if strided.WinogradViable() {
		t.Fatal("strided workload must not be winograd-viable")
	}
	oneByOne := resnetConv
	oneByOne.KH, oneByOne.KW = 1, 1
	if oneByOne.WinogradViable() {
		t.Fatal("1x1 workload must not be winograd-viable")
	}
	if !WinogradSupported(3, 3, 1, 1) || WinogradSupported(5, 5, 1, 1) {
		t.Fatal("WinogradSupported gate wrong")
	}
}

func TestWinogradBeatsDirectOnViableWorkloads(t *testing.T) {
	// The algorithm dimension's raison d'être: on AVX-512, a ResNet-style
	// 3x3 stride-1 convolution runs faster under winograd (2.25x fewer
	// multiplies) despite the transform overhead.
	tgt := IntelSkylakeC5()
	direct := tgt.ConvTime(resnetConv, goodSchedule(tgt), 1, BackendSerial, 1)
	wino := tgt.ConvTime(resnetConv, winogradSchedule(tgt), 1, BackendSerial, 1)
	if wino >= direct {
		t.Fatalf("winograd %.3gs should beat direct %.3gs on 3x3 stride-1", wino, direct)
	}
	// But never by more than the multiply reduction itself.
	if direct/wino > winogradMulSaving {
		t.Fatalf("winograd speedup %.2fx exceeds the %.2fx multiply saving", direct/wino, winogradMulSaving)
	}
}

func TestWinogradSpillsOnNarrowRegisterFiles(t *testing.T) {
	// AVX2 has 16 vector registers; the 16 transform-domain accumulators
	// plus operands spill, so winograd's edge shrinks (and can invert)
	// relative to AVX-512 — the structural reason the *search* decides
	// per target instead of always preferring winograd.
	intel := IntelSkylakeC5()
	amd := AMDEpycM5a()
	gainIntel := intel.ConvTime(resnetConv, goodSchedule(intel), 1, BackendSerial, 1) /
		intel.ConvTime(resnetConv, winogradSchedule(intel), 1, BackendSerial, 1)
	gainAMD := amd.ConvTime(resnetConv, goodSchedule(amd), 1, BackendSerial, 1) /
		amd.ConvTime(resnetConv, winogradSchedule(amd), 1, BackendSerial, 1)
	if gainAMD >= gainIntel {
		t.Fatalf("winograd gain on AVX2 (%.2fx) should trail AVX-512 (%.2fx)", gainAMD, gainIntel)
	}
}

func TestWinogradInvalidWorkloadPricedOut(t *testing.T) {
	tgt := IntelSkylakeC5()
	strided := resnetConv
	strided.StrideH, strided.StrideW = 2, 2
	bad := tgt.ConvTime(strided, winogradSchedule(tgt), 1, BackendSerial, 1)
	good := tgt.ConvTime(strided, goodSchedule(tgt), 1, BackendSerial, 1)
	if bad < 1e3 || bad <= good {
		t.Fatalf("winograd on a strided workload must be priced out (got %.3gs vs direct %.3gs)", bad, good)
	}
	// Finite, so solver cost sums never go NaN.
	if bad != bad || bad > 1e12 {
		t.Fatalf("invalid-schedule price must be finite: %v", bad)
	}
}

func TestWinogradTransformOverheadGrowsWithChannels(t *testing.T) {
	// Small-channel workloads amortize the transforms poorly: the winograd
	// advantage must shrink as channels drop.
	tgt := IntelSkylakeC5()
	small := ConvWorkload{InC: 8, InH: 28, InW: 28, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	sSmall := ConvSchedule{Layout: tensor.NCHWc(8), ICBlock: 8, OCBlock: 8, RegN: 1, Algorithm: AlgoWinograd}
	dSmall := ConvSchedule{Layout: tensor.NCHWc(8), ICBlock: 8, OCBlock: 8, RegN: 8}
	gainSmall := tgt.ConvTime(small, dSmall, 1, BackendSerial, 1) / tgt.ConvTime(small, sSmall, 1, BackendSerial, 1)
	gainBig := tgt.ConvTime(resnetConv, goodSchedule(tgt), 1, BackendSerial, 1) /
		tgt.ConvTime(resnetConv, winogradSchedule(tgt), 1, BackendSerial, 1)
	if gainSmall >= gainBig {
		t.Fatalf("winograd gain should shrink with channels: %d-ch %.2fx vs %d-ch %.2fx",
			small.InC, gainSmall, resnetConv.InC, gainBig)
	}
}

func TestEfficiencyRewardsLatencyHiding(t *testing.T) {
	tgt := IntelSkylakeC5()
	s := goodSchedule(tgt)
	s.RegN = 2 // far below FMALatency*FMAPerCycle = 8
	low := tgt.ConvEfficiency(resnetConv, s)
	s.RegN = 8
	high := tgt.ConvEfficiency(resnetConv, s)
	if low >= high {
		t.Fatalf("reg_n=2 eff %.3f should be below reg_n=8 eff %.3f", low, high)
	}
}

func TestEfficiencyPenalizesSpill(t *testing.T) {
	tgt := AMDEpycM5a() // 16 vector registers
	s := goodSchedule(tgt)
	s.RegN = 8
	ok := tgt.ConvEfficiency(resnetConv, s)
	s.RegN = 32 // 32+2 > 16 registers: must spill
	spill := tgt.ConvEfficiency(resnetConv, s)
	if spill >= ok {
		t.Fatalf("spilling schedule eff %.3f should be below fitting schedule %.3f", spill, ok)
	}
}

func TestEfficiencyPenalizesPartialLanes(t *testing.T) {
	tgt := IntelSkylakeC5() // 16 lanes
	s := goodSchedule(tgt)
	s.OCBlock = 16
	full := tgt.ConvEfficiency(resnetConv, s)
	s.OCBlock = 8 // half a ZMM register
	half := tgt.ConvEfficiency(resnetConv, s)
	if half >= full {
		t.Fatalf("oc_bn=8 eff %.3f should be below oc_bn=16 eff %.3f on AVX-512", half, full)
	}
}

func TestEfficiencyBounded(t *testing.T) {
	f := func(icRaw, ocRaw, regRaw uint8) bool {
		blocks := []int{1, 2, 4, 8, 16, 32, 64}
		s := ConvSchedule{
			Layout:  tensor.NCHWc(blocks[int(icRaw)%len(blocks)]),
			ICBlock: blocks[int(icRaw)%len(blocks)],
			OCBlock: blocks[int(ocRaw)%len(blocks)],
			RegN:    []int{2, 4, 8, 16, 32}[int(regRaw)%5],
		}
		for _, tgt := range AllTargets() {
			e := tgt.ConvEfficiency(resnetConv, s)
			if e <= 0 || e > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConvTimeDecreasesWithThreads(t *testing.T) {
	tgt := IntelSkylakeC5()
	s := goodSchedule(tgt)
	t1 := tgt.ConvTime(resnetConv, s, 1, BackendPool, 1)
	t8 := tgt.ConvTime(resnetConv, s, 8, BackendPool, 1)
	t18 := tgt.ConvTime(resnetConv, s, 18, BackendPool, 1)
	if !(t1 > t8 && t8 > t18) {
		t.Fatalf("conv time must decrease with threads: %v %v %v", t1, t8, t18)
	}
	// Speedup at 8 threads should be substantial but sub-linear.
	sp := t1 / t8
	if sp < 4 || sp > 8 {
		t.Fatalf("8-thread speedup = %.2f, want within [4, 8]", sp)
	}
}

func TestPoolBeatsOMPOverhead(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		if RegionOverhead(BackendPool, n) >= RegionOverhead(BackendOMP, n) {
			t.Fatalf("pool overhead must be below OMP at %d threads", n)
		}
	}
	if RegionOverhead(BackendPool, 1) != 0 || RegionOverhead(BackendOMP, 1) != 0 {
		t.Fatal("single-thread region overhead must be zero")
	}
}

func TestParallelEfficiency(t *testing.T) {
	tgt := IntelSkylakeC5()
	if e := tgt.ParallelEfficiency(1000, 1); e != 1 {
		t.Fatalf("1-thread efficiency = %v, want 1", e)
	}
	big := tgt.ParallelEfficiency(10000, 18)
	small := tgt.ParallelEfficiency(19, 18) // nasty imbalance: 2 chunks on one thread
	if big <= small {
		t.Fatalf("fine-grained work (%v) must parallelize better than 19 units (%v)", big, small)
	}
	if small > 0.6 {
		t.Fatalf("19 units on 18 threads should show ~0.53 imbalance, got %v", small)
	}
	// Efficiency is a fraction.
	for units := 1; units < 300; units += 7 {
		for _, th := range []int{1, 2, 5, 18, 40} {
			e := tgt.ParallelEfficiency(units, th)
			if e <= 0 || e > 1 {
				t.Fatalf("efficiency out of range: units=%d threads=%d e=%v", units, th, e)
			}
		}
	}
}

func TestMemoryFloor(t *testing.T) {
	tgt := IntelSkylakeC5()
	// A 1x1 conv over few channels is bandwidth bound; time must not drop
	// below bytes/peak-bandwidth even with all cores.
	wl := ConvWorkload{InC: 16, InH: 224, InW: 224, OutC: 16, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	s := goodSchedule(tgt)
	s.ICBlock, s.OCBlock = 16, 16
	got := tgt.ConvTime(wl, s, 18, BackendPool, 1)
	floor := wl.Bytes() / (tgt.MemBWGBs * 1e9)
	if got < floor {
		t.Fatalf("conv time %v below absolute memory floor %v", got, floor)
	}
}

func TestTransformTimeScales(t *testing.T) {
	tgt := IntelSkylakeC5()
	small := tgt.TransformTime(1000, 1, BackendSerial)
	big := tgt.TransformTime(1000000, 1, BackendSerial)
	if big <= small {
		t.Fatal("larger transform must cost more")
	}
	if tgt.TransformTime(0, 1, BackendSerial) != 0 {
		t.Fatal("empty transform must be free")
	}
	// Threads help, but not unboundedly (bandwidth bound).
	t1 := tgt.TransformTime(1<<22, 1, BackendPool)
	t4 := tgt.TransformTime(1<<22, 4, BackendPool)
	t18 := tgt.TransformTime(1<<22, 18, BackendPool)
	if !(t4 < t1) {
		t.Fatalf("4 threads should beat 1: %v vs %v", t4, t1)
	}
	if t18 < t4*0.5 {
		t.Fatalf("bandwidth-bound transform should not scale past saturation: t4=%v t18=%v", t4, t18)
	}
}

func TestDenseTimeIsMemoryBound(t *testing.T) {
	tgt := IntelSkylakeC5()
	// VGG's first FC layer: 25088 -> 4096 = 98M weights = 393 MB.
	got := tgt.DenseTime(25088, 4096, 18, BackendPool, 1)
	bytes := 4.0 * 25088 * 4096
	floor := bytes / (tgt.MemBWGBs * 1e9)
	if got < floor {
		t.Fatalf("dense time %v below bandwidth floor %v", got, floor)
	}
	// And it should be within ~3x of the floor (it is a GEMV).
	if got > 3*floor/0.8 {
		t.Fatalf("dense time %v too far above floor %v", got, floor)
	}
}

func TestEltwiseAndPoolTimes(t *testing.T) {
	tgt := ARMCortexA72()
	e := tgt.EltwiseTime(1<<20, 4, BackendPool)
	if e <= 0 {
		t.Fatal("eltwise time must be positive")
	}
	if tgt.EltwiseTime(0, 4, BackendPool) != 0 {
		t.Fatal("zero-byte eltwise must be free")
	}
	p := tgt.PoolTime(1<<20, 1<<18, 9, 4, BackendPool)
	if p <= e {
		t.Fatal("3x3 pooling over same input should cost more than eltwise")
	}
}

func TestConvTimeKernelQuality(t *testing.T) {
	tgt := AMDEpycM5a()
	s := goodSchedule(tgt)
	tuned := tgt.ConvTime(resnetConv, s, 8, BackendPool, 1.0)
	detuned := tgt.ConvTime(resnetConv, s, 8, BackendPool, 0.6)
	if detuned <= tuned {
		t.Fatal("lower kernel quality must increase time")
	}
}

func TestExtendedTargets(t *testing.T) {
	if len(ExtendedTargets()) != 5 {
		t.Fatalf("extended targets = %d, want 5", len(ExtendedTargets()))
	}
	// The paper's table set stays at three.
	if len(AllTargets()) != 3 {
		t.Fatal("paper target set must remain 3")
	}
	// Graviton2 is a faster fp32 machine than the A72.
	if ARMGraviton2().PeakGFLOPS() <= ARMCortexA72().PeakGFLOPS() {
		t.Fatal("graviton2 must out-peak the A72")
	}
	if _, err := TargetByName("arm-graviton2"); err != nil {
		t.Fatal(err)
	}
}
