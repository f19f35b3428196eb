package core

import (
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/tensor"
)

// PredictConfig parameterizes the analytic latency prediction. Engine
// simulators (internal/baselines) reuse this predictor with their own kernel
// quality and dispatch overhead; NeoCPU itself predicts with the defaults.
type PredictConfig struct {
	// Threads is the execution width; 0 uses the module's configuration.
	Threads int
	// Backend is the threading runtime; 0 (serial) with Threads>1 means
	// the thread pool, the runtime such a module executes on.
	Backend machine.ThreadBackend
	// KernelQuality scales convolution efficiency; 1.0 is a fully tuned
	// kernel for this target, lower models vendor libraries running on
	// foreign architectures. 0 means 1.0.
	KernelQuality float64
	// DispatchOverhead is added per executed graph node, modeling framework
	// operator-dispatch cost (interpreted frameworks pay more than compiled
	// modules).
	DispatchOverhead float64
}

// predictRuntime resolves the width and runtime a prediction prices: the
// module's width when cfg.Threads is 0, and the runtime that width executes
// on when cfg.Backend is 0.
func (m *Module) predictRuntime(cfg PredictConfig) (int, machine.ThreadBackend) {
	threads := cfg.Threads
	if threads <= 0 {
		threads = m.threads
	}
	backend := cfg.Backend
	if backend == machine.BackendSerial {
		backend = runtimeBackend(threads)
	}
	return threads, backend
}

// PredictLatency walks the compiled program through the machine cost model
// and returns the predicted end-to-end seconds for one batch-1 inference on
// the module's target. This is the simulated measurement used to regenerate
// the paper's tables: the target hardware (AVX-512/AVX2/NEON) is modeled,
// not the host this binary runs on.
func (m *Module) PredictLatency(cfg PredictConfig) float64 {
	threads, backend := m.predictRuntime(cfg)
	quality := cfg.KernelQuality
	if quality <= 0 {
		quality = 1
	}
	t := m.Target

	total := 0.0
	for _, n := range m.program {
		total += cfg.DispatchOverhead
		switch n.Op {
		case graph.OpConv2D:
			total += t.ConvTime(graph.ConvWorkload(n), n.Sched, threads, backend, quality)
			// The fused epilogue (bias/residual/ReLU) rides along with the
			// output store: that is the point of fusion.

		case graph.OpLayoutTransform:
			from := n.Inputs[0].OutLayout
			to := n.Transform
			if physicallyFree(from, to) {
				continue
			}
			total += t.TransformTime(n.OutShape.Volume(), threads, backend)

		case graph.OpBatchNorm, graph.OpReLU, graph.OpAdd:
			bytes := float64(n.OutShape.Volume()) * 4 * 2
			if n.Op == graph.OpAdd {
				bytes = float64(n.OutShape.Volume()) * 4 * 3
			}
			total += t.EltwiseTime(bytes, threads, backend)

		case graph.OpPool:
			in := n.Inputs[0].OutShape
			total += t.PoolTime(float64(in.Volume())*4, float64(n.OutShape.Volume())*4,
				n.Pool.KH*n.Pool.KW, threads, backend)

		case graph.OpGlobalAvgPool:
			in := n.Inputs[0].OutShape
			total += t.EltwiseTime(float64(in.Volume())*4, threads, backend)

		case graph.OpConcat:
			total += t.EltwiseTime(float64(n.OutShape.Volume())*4*2, threads, backend)

		case graph.OpDense:
			total += t.DenseTime(n.Weight.Shape[1], n.Weight.Shape[0], threads, backend, quality)

		case graph.OpSoftmax:
			total += t.EltwiseTime(float64(n.OutShape.Volume())*4*4, threads, backend)

		case graph.OpSSDHead:
			total += m.predictSSDHead(n, threads, backend)

		case graph.OpInput, graph.OpFlatten, graph.OpDropout:
			// Free: flatten is a view, dropout is identity at inference.
		}
	}
	return total
}

// predictSSDHead models the multibox post-processing: gathering and
// re-ordering the per-scale predictions (bandwidth), per-anchor softmax and
// decode (largely serial scalar work), and NMS.
func (m *Module) predictSSDHead(n *graph.Node, threads int, backend machine.ThreadBackend) float64 {
	t := m.Target
	var bytes float64
	for _, in := range n.Inputs {
		bytes += float64(in.OutShape.Volume()) * 4
	}
	gather := t.EltwiseTime(bytes*2, threads, backend)

	anchors := float64(n.OutShape.Dims[1])
	classes := float64(n.SSD.NumClasses + 1)
	// ~8 scalar ops per (anchor, class) for softmax + argmax, ~40 per anchor
	// for decode, at one op/cycle without SIMD benefit.
	cycles := anchors*classes*8 + anchors*40
	scalar := cycles / (t.FreqGHz * 1e9)
	// NMS: quadratic in kept candidates, bounded by topK.
	topK := float64(n.SSD.Detection.NMSTopK)
	nms := topK * topK / 2 * 12 / (t.FreqGHz * 1e9)
	return gather + scalar + nms
}

// PredictSSDHeadOnly returns the predicted cost of the SSD multibox head
// alone. The OpenVINO simulator subtracts it, reproducing the sample that
// "does not measure the entire SSD execution time" (Table 2 asterisk).
func (m *Module) PredictSSDHeadOnly(cfg PredictConfig) float64 {
	threads, backend := m.predictRuntime(cfg)
	total := 0.0
	for _, n := range m.program {
		if n.Op == graph.OpSSDHead {
			total += m.predictSSDHead(n, threads, backend)
		}
	}
	return total
}

// physicallyFree reports whether a layout transform is a no-op in memory
// (NCHW and NCHW[1]c share the same element order).
func physicallyFree(from, to tensor.Layout) bool {
	b := func(l tensor.Layout) (int, bool) {
		switch l.Kind {
		case tensor.LayoutNCHW:
			return 1, true
		case tensor.LayoutNCHWc:
			return l.BlockC, true
		}
		return 0, false
	}
	fb, ok1 := b(from)
	tb, ok2 := b(to)
	return ok1 && ok2 && fb == tb
}

// TransformCount reports how many non-free LayoutTransform nodes the
// compiled program executes (used by the ablation reports).
func (m *Module) TransformCount() int {
	count := 0
	for _, n := range m.program {
		if n.Op == graph.OpLayoutTransform && !physicallyFree(n.Inputs[0].OutLayout, n.Transform) {
			count++
		}
	}
	return count
}
