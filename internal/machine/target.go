// Package machine models the CPU targets the paper evaluates on and provides
// the analytic cost model used to predict execution time of convolution
// schedules, layout transformations and memory-bound operators.
//
// This package is the substitution for real SIMD hardware: Go has no vector
// intrinsics, so instead of measuring AVX-512/AVX2/NEON kernels we predict
// their cycle counts from the architectural parameters the paper's analysis
// depends on (vector lanes, FMA throughput and latency, register-file size,
// cache hierarchy, memory bandwidth, core count and fork-join overheads).
// The prediction is deliberately structural: it rewards exactly the schedule
// properties Section 3.1 of the paper optimizes (register blocking that hides
// FMA latency, channel blocking that fits the cache, full vector lanes) and
// penalizes the ones it avoids (strided access in plain NCHW, register
// spills, too few parallel units to balance the threads).
package machine

import "fmt"

// ISA identifies the SIMD instruction family of a target.
type ISA int

const (
	// AVX512 is Intel's 512-bit extension: 16 fp32 lanes, 32 vector registers.
	AVX512 ISA = iota
	// AVX2 is the 256-bit extension: 8 fp32 lanes, 16 vector registers.
	AVX2
	// NEON is the ARM 128-bit extension: 4 fp32 lanes, 32 vector registers.
	NEON
)

func (i ISA) String() string {
	switch i {
	case AVX512:
		return "AVX-512"
	case AVX2:
		return "AVX2"
	case NEON:
		return "NEON"
	}
	return fmt.Sprintf("ISA(%d)", int(i))
}

// ThreadBackend identifies the multi-threading runtime used for parallel
// regions. The paper compares its custom thread pool against OpenMP
// (Section 3.1.2, Figure 4).
type ThreadBackend int

const (
	// BackendSerial runs everything on one thread.
	BackendSerial ThreadBackend = iota
	// BackendPool is NeoCPU's custom thread pool: statically partitioned
	// work, SPSC lock-free task handoff, spin join, threads bound to
	// disjoint physical cores.
	BackendPool
	// BackendOMP models an OpenMP parallel-for: a central fork/join with
	// larger per-region launch and suppression overhead.
	BackendOMP
)

func (b ThreadBackend) String() string {
	switch b {
	case BackendSerial:
		return "serial"
	case BackendPool:
		return "threadpool"
	case BackendOMP:
		return "openmp"
	}
	return fmt.Sprintf("backend(%d)", int(b))
}

// Target describes one CPU platform. The three presets correspond to the EC2
// instances in Section 4 of the paper.
type Target struct {
	// Name is a short identifier (used in reports).
	Name string
	// CPU is the marketing name of the processor.
	CPU string
	// ISA is the SIMD family.
	ISA ISA
	// Cores is the number of physical cores. Hyper-threading is never used
	// (Section 2.1).
	Cores int
	// FreqGHz is the sustained all-core frequency in GHz.
	FreqGHz float64
	// VectorLanes is the number of fp32 lanes per vector register.
	VectorLanes int
	// NumVecRegs is the architectural vector register count.
	NumVecRegs int
	// FMAPerCycle is the number of vector FMA instructions issued per cycle.
	FMAPerCycle int
	// FMALatency is the FMA pipeline latency in cycles; reg_n accumulators
	// must cover FMALatency*FMAPerCycle to reach peak throughput.
	FMALatency int
	// L1DKB, L2KB are per-core data cache sizes; L3MB is the shared LLC.
	L1DKB, L2KB int
	L3MB        float64
	// MemBWGBs is the sustained memory bandwidth in GB/s (whole socket).
	MemBWGBs float64
	// CacheLineB is the cache line size in bytes.
	CacheLineB int
}

// IntelSkylakeC5 models the EC2 C5.9xlarge used in Table 2a: an 18-core
// Skylake-SP with AVX-512.
func IntelSkylakeC5() *Target {
	return &Target{
		Name:        "intel-skylake",
		CPU:         "Intel Xeon Platinum 8124M (C5.9xlarge)",
		ISA:         AVX512,
		Cores:       18,
		FreqGHz:     3.0,
		VectorLanes: 16,
		NumVecRegs:  32,
		FMAPerCycle: 2,
		FMALatency:  4,
		L1DKB:       32,
		L2KB:        1024,
		L3MB:        24.75,
		MemBWGBs:    90,
		CacheLineB:  64,
	}
}

// AMDEpycM5a models the EC2 M5a.12xlarge used in Table 2b: a 24-core EPYC
// (Zen) with AVX2.
func AMDEpycM5a() *Target {
	return &Target{
		Name:        "amd-epyc",
		CPU:         "AMD EPYC 7571 (M5a.12xlarge)",
		ISA:         AVX2,
		Cores:       24,
		FreqGHz:     2.5,
		VectorLanes: 8,
		NumVecRegs:  16,
		FMAPerCycle: 1,
		FMALatency:  5,
		L1DKB:       32,
		L2KB:        512,
		L3MB:        64,
		MemBWGBs:    75,
		CacheLineB:  64,
	}
}

// ARMCortexA72 models the EC2 A1.4xlarge used in Table 2c: a 16-core
// Cortex-A72 with NEON.
func ARMCortexA72() *Target {
	return &Target{
		Name:        "arm-cortex-a72",
		CPU:         "ARM Cortex-A72 (A1.4xlarge, Graviton)",
		ISA:         NEON,
		Cores:       16,
		FreqGHz:     2.3,
		VectorLanes: 4,
		NumVecRegs:  32,
		FMAPerCycle: 1,
		FMALatency:  7,
		L1DKB:       32,
		L2KB:        1024,
		L3MB:        32,
		MemBWGBs:    35,
		CacheLineB:  64,
	}
}

// AllTargets returns the three evaluation platforms in paper order.
func AllTargets() []*Target {
	return []*Target{IntelSkylakeC5(), AMDEpycM5a(), ARMCortexA72()}
}

// IntelCascadeLakeC5 models a 24-core successor to the paper's Skylake
// instance (extension target). Not part of the paper's tables.
func IntelCascadeLakeC5() *Target {
	t := IntelSkylakeC5()
	t.Name = "intel-cascadelake"
	t.CPU = "Intel Xeon Platinum 8275CL (C5.12xlarge class)"
	t.Cores = 24
	t.FreqGHz = 3.1
	return t
}

// ARMGraviton2 models the Neoverse-N1 successor to the paper's A1 instance
// (extension target: two FMA pipes, a shorter FMA latency and more memory
// bandwidth). Not part of the paper's tables.
func ARMGraviton2() *Target {
	t := ARMCortexA72()
	t.Name = "arm-graviton2"
	t.CPU = "AWS Graviton2 (Neoverse N1, M6g class)"
	t.Cores = 16
	t.FreqGHz = 2.5
	t.FMAPerCycle = 2
	t.FMALatency = 4
	t.MemBWGBs = 80
	return t
}

// ExtendedTargets returns the paper's targets plus the two extension
// platforms, so ParseTarget and bundle loading accept them by name.
func ExtendedTargets() []*Target {
	return append(AllTargets(), IntelCascadeLakeC5(), ARMGraviton2())
}

// TargetByName looks up one of the preset targets (including extensions).
func TargetByName(name string) (*Target, error) {
	for _, t := range ExtendedTargets() {
		if t.Name == name {
			return t, nil
		}
	}
	return nil, fmt.Errorf("machine: unknown target %q", name)
}

// PeakCoreGFLOPS returns single-core peak fp32 GFLOP/s (FMA counts as two
// floating-point operations per lane).
func (t *Target) PeakCoreGFLOPS() float64 {
	return t.FreqGHz * float64(t.VectorLanes) * float64(t.FMAPerCycle) * 2
}

// PeakGFLOPS returns whole-chip peak fp32 GFLOP/s.
func (t *Target) PeakGFLOPS() float64 {
	return t.PeakCoreGFLOPS() * float64(t.Cores)
}

func (t *Target) String() string {
	return fmt.Sprintf("%s: %d cores @ %.1f GHz, %v (%d fp32 lanes, %d regs), peak %.0f GFLOPS",
		t.Name, t.Cores, t.FreqGHz, t.ISA, t.VectorLanes, t.NumVecRegs, t.PeakGFLOPS())
}
