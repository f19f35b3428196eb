package machine

import (
	"fmt"

	"repro/internal/tensor"
)

// ConvWorkload identifies a convolution workload the way the paper's schedule
// database does: by feature-map and kernel geometry (Section 3.3.1). Batch
// size is always 1 for latency experiments (Section 4).
type ConvWorkload struct {
	InC, InH, InW    int // input channels and spatial size
	OutC, KH, KW     int // kernels
	StrideH, StrideW int
	PadH, PadW       int
	// Groups partitions the channels (0 or 1 = dense; InC = depthwise). Each
	// output channel reduces over InC/Groups inputs, so FLOPs and weight
	// bytes shrink by the group count.
	Groups int
}

// GroupCount normalizes the Groups field: the zero value means one dense
// group.
func (w ConvWorkload) GroupCount() int {
	if w.Groups <= 1 {
		return 1
	}
	return w.Groups
}

// Depthwise reports whether the workload is a depthwise convolution: one
// group per input channel, channel multiplier 1.
func (w ConvWorkload) Depthwise() bool {
	return w.GroupCount() > 1 && w.Groups == w.InC && w.OutC == w.InC
}

// OutH returns the output feature-map height.
func (w ConvWorkload) OutH() int { return (w.InH+2*w.PadH-w.KH)/w.StrideH + 1 }

// OutW returns the output feature-map width.
func (w ConvWorkload) OutW() int { return (w.InW+2*w.PadW-w.KW)/w.StrideW + 1 }

// FLOPs returns the floating-point operation count (multiply and add counted
// separately) of a direct convolution.
func (w ConvWorkload) FLOPs() float64 {
	return 2 * float64(w.OutH()) * float64(w.OutW()) * float64(w.OutC) *
		float64(w.InC/w.GroupCount()) * float64(w.KH) * float64(w.KW)
}

// Bytes returns the minimum bytes touched: input + weights + output, fp32.
func (w ConvWorkload) Bytes() float64 {
	in := float64(w.InC * w.InH * w.InW * 4)
	wt := float64(w.OutC * (w.InC / w.GroupCount()) * w.KH * w.KW * 4)
	out := float64(w.OutC*w.OutH()*w.OutW()) * 4
	return in + wt + out
}

// Key returns the database key for this workload (Section 3.3.1: "defined by
// the feature map and convolution kernel sizes"). Dense workloads keep their
// pre-groups key so existing schedule databases stay valid.
func (w ConvWorkload) Key() string {
	k := fmt.Sprintf("c%dx%dx%d-k%dx%dx%d-s%dx%d-p%dx%d",
		w.InC, w.InH, w.InW, w.OutC, w.KH, w.KW, w.StrideH, w.StrideW, w.PadH, w.PadW)
	if g := w.GroupCount(); g > 1 {
		k += fmt.Sprintf("-g%d", g)
	}
	return k
}

// ValidateBlocks checks a blocked (NCHW[x]c) schedule's channel-block pair
// against this workload's grouping — the single source of truth shared by
// AlterOpLayout (compile-time scheme validation) and plan loading:
//
//   - depthwise: one shared block on both sides (output lane v of a channel
//     block reads input lane v of the same block), dividing the channel count;
//   - grouped and dense (one group): ic_bn divides in_channels/groups and
//     oc_bn divides out_channels/groups, so blocks never straddle a group.
func (w ConvWorkload) ValidateBlocks(s ConvSchedule) error {
	if w.Depthwise() {
		if s.ICBlock != s.OCBlock {
			return fmt.Errorf("depthwise schedules require ic_bn == oc_bn, got (%d,%d)", s.ICBlock, s.OCBlock)
		}
		if s.ICBlock <= 0 || w.InC%s.ICBlock != 0 {
			return fmt.Errorf("depthwise block %d does not divide channels %d", s.ICBlock, w.InC)
		}
		return nil
	}
	g := w.GroupCount()
	if s.ICBlock <= 0 || (w.InC/g)%s.ICBlock != 0 || s.OCBlock <= 0 || (w.OutC/g)%s.OCBlock != 0 {
		return fmt.Errorf("blocks (%d,%d) do not divide per-group channels (%d,%d)",
			s.ICBlock, s.OCBlock, w.InC/g, w.OutC/g)
	}
	return nil
}

// ConvAlgorithm selects the convolution computation algorithm of a schedule.
// The paper's Section 6 names "extending to other convolution computation
// algorithms such as Winograd" as future work; here the algorithm is one more
// searched dimension of the optimization scheme.
type ConvAlgorithm int

const (
	// AlgoDirect is the Algorithm-1 direct template (the default; the zero
	// value so pre-existing schedules and serialized plans mean direct).
	AlgoDirect ConvAlgorithm = iota
	// AlgoWinograd is the F(2x2, 3x3) Winograd algorithm: 2.25x fewer
	// multiplies, paid for with per-tile data and inverse transforms.
	AlgoWinograd
)

func (a ConvAlgorithm) String() string {
	if a == AlgoWinograd {
		return "winograd"
	}
	return "direct"
}

// WinogradSupported reports whether the F(2x2, 3x3) Winograd algorithm can
// compute a convolution with the given kernel and stride: 3x3 kernels at
// stride 1 only (any padding).
func WinogradSupported(kh, kw, strideH, strideW int) bool {
	return kh == 3 && kw == 3 && strideH == 1 && strideW == 1
}

// WinogradViable reports whether the Winograd algorithm applies to this
// workload: 3x3 stride-1 dense convolutions only. Grouped and depthwise
// convolutions are excluded — the F(2,3) kernel reduces over all input
// channels, and a per-group transform domain would forfeit the amortization
// the algorithm's saving depends on. The search only emits winograd
// candidates for viable workloads, and plan loading rejects winograd entries
// on non-viable convolutions.
func (w ConvWorkload) WinogradViable() bool {
	return WinogradSupported(w.KH, w.KW, w.StrideH, w.StrideW) && w.GroupCount() == 1
}

// ConvSchedule is the optimization-scheme tuple of Section 3.3,
// (ic_bn, oc_bn, reg_n), plus the data layout the convolution executes in
// and the convolution algorithm (direct or winograd). The paper's fourth
// knob, whether to unroll the kernel loop, is absent: each template has one
// kernel path with a fixed register tile. For NCHW/NHWC layouts the blocking
// fields are ignored; for winograd schedules reg_n is ignored (the kernel's
// tiling is fixed at 2x2).
type ConvSchedule struct {
	Layout    tensor.Layout // activation layout (NCHW, NHWC or NCHWc)
	ICBlock   int           // ic_bn: input-channel split factor x
	OCBlock   int           // oc_bn: output-channel split factor y
	RegN      int           // reg_n: register-blocking width along out_width
	Algorithm ConvAlgorithm // convolution algorithm (direct or winograd)
}

func (s ConvSchedule) String() string {
	if s.Layout.Kind != tensor.LayoutNCHWc {
		return fmt.Sprintf("{%v}", s.Layout)
	}
	if s.Algorithm == AlgoWinograd {
		return fmt.Sprintf("{winograd ic_bn=%d oc_bn=%d}", s.ICBlock, s.OCBlock)
	}
	return fmt.Sprintf("{ic_bn=%d oc_bn=%d reg_n=%d}", s.ICBlock, s.OCBlock, s.RegN)
}

// Cost-model tuning constants. These are calibrated once against the paper's
// hardware (see machine calibration tests) and shared by every experiment;
// they are not fit per-model.
const (
	// peakFractionDirect is the fraction of peak FLOPS a perfectly scheduled
	// direct convolution reaches (cache misses, prologue/epilogue, address
	// arithmetic keep it below 1).
	peakFractionDirect = 0.52
	// layoutFactorNCHW is the relative kernel efficiency of a plain NCHW
	// direct convolution: the innermost width dimension is vectorizable but
	// accumulating across in-channels walks large strides, defeating both
	// the FMA pipeline and the cache (Section 4.2.1 measures 4-8x).
	layoutFactorNCHW = 0.135
	// layoutFactorNHWC is the relative efficiency of channels-last direct
	// convolution: unit-stride channel access vectorizes, but per-pixel
	// weight reuse is poor without blocking.
	layoutFactorNHWC = 0.24
	// bwEfficiency is the achievable fraction of peak memory bandwidth for
	// streaming layout transforms and element-wise operators.
	bwEfficiency = 0.65
	// spillPenalty is the throughput factor once the schedule needs more
	// accumulators than architectural vector registers.
	spillPenalty = 0.42

	// winogradMulSaving is F(2x2,3x3)'s 36 -> 16 multiply reduction per tile.
	winogradMulSaving = 2.25
	// peakFractionWinograd is the peak fraction the transform-domain products
	// reach: slightly below the direct template because the 16 component
	// accumulators are scattered rather than one contiguous register tile.
	peakFractionWinograd = 0.46
	// winogradAccumRegs is the transform-domain accumulator count per tile
	// (one vector per Winograd component); like reg_n for the direct
	// template, these must fit the register file or the kernel spills.
	winogradAccumRegs = 16
	// winogradXformOpsIn / winogradXformOpsOut are the scalar add-ops of the
	// data transform Bᵀ d B per (tile, in-channel) and the inverse transform
	// Aᵀ M A per (tile, out-channel). The weight transform G g Gᵀ runs at
	// compile time and is free here.
	winogradXformOpsIn  = 32
	winogradXformOpsOut = 24
	// winogradXformLaneEff is the fraction of vector lanes the strided
	// transform gather/scatter loops keep busy.
	winogradXformLaneEff = 0.45
	// winogradInvalidSeconds prices a winograd schedule on a workload the
	// algorithm cannot compute (non-3x3 or strided): large enough that no
	// search keeps it, finite so solver arithmetic never produces NaN.
	winogradInvalidSeconds = 1e6

	// peakFractionDepthwise is the peak fraction of the depthwise template:
	// every lane-wise FMA consumes a fresh input vector — there is no channel
	// reduction to amortize loads over, so the kernel is load-port bound well
	// below the dense template's ceiling.
	peakFractionDepthwise = 0.34
	// groupedFragFactor penalizes grouped (1 < g < C) convolutions relative
	// to dense: per-group weight slabs fragment the streaming pattern and
	// shrink the reduction the register tile amortizes over.
	groupedFragFactor = 0.92
)

// RegionOverhead returns the fork-join cost in seconds of launching one
// parallel region on the given backend with n worker threads. The custom
// thread pool hands tasks over SPSC lock-free queues and spin-joins; the
// OpenMP-style runtime wakes and suppresses its team through a central
// barrier, which costs more and grows faster with the team size
// (Section 4.2.4).
func RegionOverhead(backend ThreadBackend, threads int) float64 {
	if threads <= 1 {
		return 0
	}
	switch backend {
	case BackendPool:
		return 0.4e-6 + 0.03e-6*float64(threads)
	case BackendOMP:
		return 2.6e-6 + 0.34e-6*float64(threads)
	default:
		return 0
	}
}

// parallelUnits returns the number of independent work units a convolution
// exposes to the thread pool: the outermost OFMAP chunks of Algorithm 1 for
// the direct template, or the 2-row tile bands of the Winograd kernel (which
// amortizes each data transform across every output channel, so its parallel
// unit is a tile row rather than an output block).
func parallelUnits(wl ConvWorkload, s ConvSchedule) int {
	if s.Algorithm == AlgoWinograd && s.Layout.Kind == tensor.LayoutNCHWc {
		units := (wl.OutH() + 1) / 2
		if units < 1 {
			units = 1
		}
		return units
	}
	oc := wl.OutC
	ocb := s.OCBlock
	if s.Layout.Kind != tensor.LayoutNCHWc || ocb <= 0 {
		ocb = 1
	}
	units := (oc / ocb) * wl.OutH()
	if units < 1 {
		units = 1
	}
	return units
}

// ParallelEfficiency returns the fraction of linear speedup achievable when
// distributing `units` equal work units over `threads` threads: the load
// imbalance of static partitioning (the busiest thread's contiguous range
// holds ceil(units/threads) units) plus a per-thread coherence/bandwidth
// friction term.
func (t *Target) ParallelEfficiency(units, threads int) float64 {
	if threads <= 1 {
		return 1
	}
	if threads > t.Cores {
		threads = t.Cores
	}
	perThread := (units + threads - 1) / threads
	imbalance := float64(units) / float64(perThread*threads)
	friction := 1 / (1 + 0.009*float64(threads-1))
	return imbalance * friction
}

// ConvEfficiency predicts the fraction of peak FLOPS a single-threaded
// direct convolution achieves under the given schedule. It encodes the
// schedule-quality criteria of Section 3.1.1:
//
//   - full vector lanes: oc_bn should be a multiple of the vector width;
//   - FMA latency hiding: reg_n accumulators must cover latency*throughput;
//   - no register spills: reg_n+2 registers must fit the register file;
//   - cache residence: the inner working set should fit L1 (or at least L2);
//   - tail waste: out_width should divide evenly by reg_n.
func (t *Target) ConvEfficiency(wl ConvWorkload, s ConvSchedule) float64 {
	switch s.Layout.Kind {
	case tensor.LayoutNCHW:
		return peakFractionDirect * layoutFactorNCHW
	case tensor.LayoutNHWC:
		return peakFractionDirect * layoutFactorNHWC
	case tensor.LayoutNCHWc:
		if s.Algorithm == AlgoWinograd {
			return t.winogradEfficiency(wl, s)
		}
		if wl.Depthwise() {
			return t.depthwiseEfficiency(wl, s)
		}
		// Grouped (and dense) convolutions use the blocked direct model
		// below: ic_bn is the per-group block, so the working-set and
		// lane-utilization terms carry over; only the fragmentation factor
		// differs.
	default:
		return peakFractionDirect * layoutFactorNCHW
	}

	// Vector lane utilization: the oc_bn sub-channels are what the kernel
	// broadcasts into lanes (Figure 1).
	lanes := t.VectorLanes
	var laneUtil float64
	switch {
	case s.OCBlock%lanes == 0:
		laneUtil = 1
	case s.OCBlock > lanes:
		// Full vectors plus a partial tail vector.
		full := s.OCBlock / lanes
		laneUtil = float64(s.OCBlock) / float64((full+1)*lanes)
	default:
		laneUtil = float64(s.OCBlock) / float64(lanes)
	}

	// FMA latency hiding: with fewer than latency*issue accumulators in
	// flight the FMA pipeline stalls proportionally.
	need := t.FMALatency * t.FMAPerCycle
	latHide := float64(s.RegN) / float64(need)
	if latHide > 1 {
		latHide = 1
	}
	if latHide < 0.2 {
		latHide = 0.2
	}

	// Register pressure: reg_n accumulators + 1 kernel vector + 1 input
	// broadcast (Algorithm 1 lines 10-17).
	pressure := 1.0
	if s.RegN+2 > t.NumVecRegs {
		pressure = spillPenalty
	}

	// Tail waste along out_width.
	ow := wl.OutW()
	tiles := (ow + s.RegN - 1) / s.RegN
	tail := float64(ow) / float64(tiles*s.RegN)

	// Cache residence of the inner block: one weight slab
	// (ic_bn*KH*KW*oc_bn), reg_n input positions and reg_n*oc_bn outputs.
	ws := 4 * (s.ICBlock*wl.KH*wl.KW*s.OCBlock +
		s.ICBlock*(s.RegN*wl.StrideW+wl.KW) +
		s.RegN*s.OCBlock)
	var cacheF float64
	switch {
	case ws <= t.L1DKB*1024:
		cacheF = 1
	case ws <= t.L2KB*1024:
		cacheF = 0.86
	default:
		cacheF = 0.58
	}

	// Very small channel blocks underuse the FMA broadcast operand.
	chanF := 1.0
	if s.ICBlock < 4 {
		chanF = 0.82
	}

	groupF := 1.0
	if wl.GroupCount() > 1 {
		groupF = groupedFragFactor
	}

	return peakFractionDirect * laneUtil * latHide * pressure * tail * cacheF * chanF * groupF
}

// depthwiseEfficiency is the blocked-schedule quality model for the depthwise
// template: the schedule knobs are the shared channel block (ic_bn == oc_bn)
// and reg_n, but there is no input-channel reduction — each
// lane-wise FMA loads its own input vector, so the ceiling sits at
// peakFractionDepthwise and the cache term covers only the tiny per-channel
// kernel slab plus the register tile.
func (t *Target) depthwiseEfficiency(wl ConvWorkload, s ConvSchedule) float64 {
	lanes := t.VectorLanes
	var laneUtil float64
	switch {
	case s.OCBlock%lanes == 0:
		laneUtil = 1
	case s.OCBlock > lanes:
		full := s.OCBlock / lanes
		laneUtil = float64(s.OCBlock) / float64((full+1)*lanes)
	default:
		laneUtil = float64(s.OCBlock) / float64(lanes)
	}

	need := t.FMALatency * t.FMAPerCycle
	latHide := float64(s.RegN) / float64(need)
	if latHide > 1 {
		latHide = 1
	}
	if latHide < 0.2 {
		latHide = 0.2
	}

	pressure := 1.0
	if s.RegN+2 > t.NumVecRegs {
		pressure = spillPenalty
	}

	ow := wl.OutW()
	tiles := (ow + s.RegN - 1) / s.RegN
	tail := float64(ow) / float64(tiles*s.RegN)

	// Working set: one kernel slab (KH*KW*bn), reg_n input positions and the
	// accumulator tile — per channel block, always L1-resident in practice.
	ws := 4 * (wl.KH*wl.KW*s.OCBlock +
		s.OCBlock*(s.RegN*wl.StrideW+wl.KW) +
		s.RegN*s.OCBlock)
	cacheF := 1.0
	if ws > t.L1DKB*1024 {
		cacheF = 0.86
	}

	return peakFractionDepthwise * laneUtil * latHide * pressure * tail * cacheF
}

// winogradEfficiency is the blocked-schedule quality model for the Winograd
// kernel's transform-domain products. The knobs differ from the direct
// template: the tile shape is fixed at 2x2 (no reg_n), and the accumulator
// tile is the 16 Winograd components — wide enough to hide FMA latency on
// every target, but spilling on register files below 18 vector registers
// (AVX2's 16: the structural reason Winograd wins less there).
func (t *Target) winogradEfficiency(wl ConvWorkload, s ConvSchedule) float64 {
	lanes := t.VectorLanes
	var laneUtil float64
	switch {
	case s.OCBlock%lanes == 0:
		laneUtil = 1
	case s.OCBlock > lanes:
		full := s.OCBlock / lanes
		laneUtil = float64(s.OCBlock) / float64((full+1)*lanes)
	default:
		laneUtil = float64(s.OCBlock) / float64(lanes)
	}

	// 16 component accumulators + 1 U vector + 1 V broadcast in flight.
	pressure := 1.0
	if winogradAccumRegs+2 > t.NumVecRegs {
		pressure = spillPenalty
	}

	// Tail waste of the 2x2 output tiling on odd feature-map sizes.
	oh, ow := wl.OutH(), wl.OutW()
	tiles := ((oh + 1) / 2) * ((ow + 1) / 2)
	tail := float64(oh*ow) / float64(tiles*4)

	// Cache residence: the reduction streams the transformed weight slab
	// (16 components x in-channels x oc_bn) plus the V tiles (16 x
	// in-channels) per output block — a larger working set than the direct
	// template's one kernel slab.
	ws := 4 * (winogradAccumRegs*wl.InC*s.OCBlock + winogradAccumRegs*wl.InC + winogradAccumRegs*s.OCBlock)
	var cacheF float64
	switch {
	case ws <= t.L1DKB*1024:
		cacheF = 1
	case ws <= t.L2KB*1024:
		cacheF = 0.88
	default:
		cacheF = 0.6
	}

	chanF := 1.0
	if s.ICBlock < 4 {
		chanF = 0.82
	}
	return peakFractionWinograd * laneUtil * pressure * tail * cacheF * chanF
}

// winogradXformSeconds prices the per-inference data and inverse transforms:
// scalar-add heavy loops that vectorize over channels at partial lane
// utilization.
func (t *Target) winogradXformSeconds(wl ConvWorkload) float64 {
	tiles := float64(((wl.OutH() + 1) / 2) * ((wl.OutW() + 1) / 2))
	ops := tiles * (float64(wl.InC)*winogradXformOpsIn + float64(wl.OutC)*winogradXformOpsOut)
	return ops / (t.FreqGHz * 1e9 * float64(t.VectorLanes) * winogradXformLaneEff)
}

// ConvTime predicts the wall-clock seconds of one convolution under the
// given schedule, thread count and threading backend. kernelQuality scales
// the single-thread efficiency and models how well an engine's kernels are
// tuned for this target (1.0 = NeoCPU's searched template; vendor libraries
// pass <1 on foreign architectures).
func (t *Target) ConvTime(wl ConvWorkload, s ConvSchedule, threads int, backend ThreadBackend, kernelQuality float64) float64 {
	if threads < 1 {
		threads = 1
	}
	if threads > t.Cores {
		threads = t.Cores
	}
	winograd := s.Algorithm == AlgoWinograd && s.Layout.Kind == tensor.LayoutNCHWc
	if winograd && !wl.WinogradViable() {
		return winogradInvalidSeconds
	}
	eff := t.ConvEfficiency(wl, s) * kernelQuality
	if eff <= 0 {
		eff = 1e-4
	}
	flops := wl.FLOPs()
	if winograd {
		// 2.25x fewer multiplies in the transform domain, plus the per-tile
		// data and inverse transforms the saving pays for.
		flops = flops / winogradMulSaving
	}
	compute := flops / (t.PeakCoreGFLOPS() * 1e9 * eff)
	if winograd {
		kq := kernelQuality
		if kq <= 0 {
			kq = 1e-4
		}
		compute += t.winogradXformSeconds(wl) / kq
	}

	units := parallelUnits(wl, s)
	pe := t.ParallelEfficiency(units, threads)
	par := compute / (float64(threads) * pe)

	// Memory floor: a convolution can never run faster than streaming its
	// operands once.
	floor := wl.Bytes() / (t.MemBWGBs * 1e9 * bwEfficiency)
	if par < floor {
		par = floor
	}
	return par + RegionOverhead(backend, threads)
}

// TransformTime predicts the seconds to execute a layout transformation over
// `elems` fp32 elements. Transforms are bandwidth-bound gather/scatter loops
// with imperfect streaming, so they cost more per byte than a pure copy.
func (t *Target) TransformTime(elems int, threads int, backend ThreadBackend) float64 {
	if elems <= 0 {
		return 0
	}
	if threads < 1 {
		threads = 1
	}
	if threads > t.Cores {
		threads = t.Cores
	}
	bytes := float64(elems) * 4 * 2 // read + write
	// Strided access achieves a fraction of streaming bandwidth; extra
	// threads help until the bus saturates (~4 threads).
	effThreads := float64(threads)
	if effThreads > 4 {
		effThreads = 4
	}
	bw := t.MemBWGBs * 1e9 * bwEfficiency * (0.35 + 0.1625*effThreads)
	return bytes/bw + RegionOverhead(backend, threads)
}

// EltwiseTime predicts the seconds for a memory-bound element-wise operator
// (ReLU, BatchNorm at inference, element-wise add, bias add) touching the
// given number of bytes (all operands, read plus write).
func (t *Target) EltwiseTime(bytes float64, threads int, backend ThreadBackend) float64 {
	if bytes <= 0 {
		return 0
	}
	if threads < 1 {
		threads = 1
	}
	if threads > t.Cores {
		threads = t.Cores
	}
	effThreads := float64(threads)
	if effThreads > 6 {
		effThreads = 6
	}
	bw := t.MemBWGBs * 1e9 * bwEfficiency * (0.3 + 0.1167*effThreads)
	return bytes/bw + RegionOverhead(backend, threads)
}

// PoolTime predicts the seconds for a pooling operator with the given window
// over `outBytes` of output; pooling re-reads each input window.
func (t *Target) PoolTime(inBytes, outBytes float64, window int, threads int, backend ThreadBackend) float64 {
	return t.EltwiseTime(inBytes*float64(window)/2+outBytes, threads, backend)
}

// DenseTime predicts the seconds for a fully-connected layer mapping `in`
// features to `out` features at batch 1. A batch-1 GEMV is memory-bound on
// the weight matrix.
func (t *Target) DenseTime(in, out int, threads int, backend ThreadBackend, kernelQuality float64) float64 {
	if threads < 1 {
		threads = 1
	}
	if threads > t.Cores {
		threads = t.Cores
	}
	flops := 2 * float64(in) * float64(out)
	compute := flops / (t.PeakCoreGFLOPS() * 1e9 * 0.35 * kernelQuality)
	pe := t.ParallelEfficiency(out, threads)
	par := compute / (float64(threads) * pe)
	bytes := 4 * float64(in) * float64(out)
	floor := bytes / (t.MemBWGBs * 1e9 * 0.8)
	if par < floor {
		par = floor
	}
	return par + RegionOverhead(backend, threads)
}
