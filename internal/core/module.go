package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/ops"
	"repro/internal/search"
	"repro/internal/tensor"
	"repro/internal/threadpool"
)

// Module is a compiled model: the optimized graph, the pre-transformed
// parameters, and the threading runtime. It is the NeoCPU "standalone module
// with minimal size" — executing it requires nothing beyond this package.
//
// A Module is safe for concurrent read-only use once compiled: its weights,
// program and threading runtime are all finalized at compile time (the
// runtime is constructed in finalizeModule precisely so that concurrent
// Sessions never race on lazy initialization). Run allocates fresh buffers
// per call; NewSession returns an execution context with a reusable arena.
type Module struct {
	Graph  *graph.Graph
	Target *machine.Target
	Level  OptLevel
	// Search carries the global-search diagnostics when Level is
	// OptGlobalSearch (nil otherwise).
	Search *search.Outcome
	// noPrepack marks prediction-only modules (weights were released).
	noPrepack bool
	// disableFusion/disableBNFold record the pass-pipeline ablations the
	// module was compiled with, so SaveBundle can make a loader rebuild the
	// exact node set the parameters were saved against.
	disableFusion bool
	disableBNFold bool

	threads int
	program []*graph.Node
	// slot maps every program node to its index in per-run value tables.
	slot map[*graph.Node]int
	// plan is the compile-time execution plan (liveness-packed arena slots
	// over dependency levels). Nil only for prediction-only modules, which
	// cannot execute.
	plan *execPlan
	// packed holds the compile-time pre-transformed OIHW[x]i[y]o weights.
	packed map[*graph.Node]*tensor.Tensor
	// anchors holds the pre-computed SSD anchor boxes per head node.
	anchors map[*graph.Node]*tensor.Tensor

	// pool runs the module's parallel regions; nil at one thread, where
	// every region runs serially on the caller.
	pool *threadpool.Pool
	// sharedPool marks a borrowed pool (Options.SharedPool): Close leaves it
	// running for its owner.
	sharedPool bool
}

// Threads returns the configured execution width.
func (m *Module) Threads() int { return m.threads }

// PredictOnly reports whether the module was compiled with NoPrepack and can
// only PredictLatency, not execute.
func (m *Module) PredictOnly() bool { return m.noPrepack }

// parallelFor returns the threading runtime constructed at compile time.
// At one thread, after Close, and on prediction-only modules it is serial
// execution on the caller.
func (m *Module) parallelFor() ops.ParallelFor {
	if m.pool != nil {
		return m.pool.ParallelRange
	}
	return ops.Serial
}

// Close releases the module's thread pool. A pool borrowed via
// Options.SharedPool is dropped, not closed — its owner decides its
// lifetime. The module remains usable; subsequent runs execute serially.
// Close must not race with in-flight Run/Session.Run calls.
func (m *Module) Close() {
	if m.pool != nil && !m.sharedPool {
		m.pool.Close()
	}
	m.pool = nil
}

// checkInput validates a batch input against the compiled graph.
func (m *Module) checkInput(input *tensor.Tensor) error {
	if m.noPrepack {
		return fmt.Errorf("core: module was compiled with NoPrepack (prediction-only); recompile without it to execute")
	}
	in := m.Graph.Input.OutShape
	if input.Layout.Kind != tensor.LayoutNCHW || len(input.Shape) != 4 {
		return fmt.Errorf("core: input must be NCHW rank-4, got %v %v", input.Layout, input.Shape)
	}
	for i, d := range in.Dims {
		if input.Shape[i] != d {
			return fmt.Errorf("core: input shape %v, want %v", input.Shape, in.Dims)
		}
	}
	return nil
}

// Run executes the model on one NCHW input image and returns the outputs in
// graph-output order. Classification models return (1, classes)
// probabilities; SSD returns a (1, numDetections, 6) tensor whose rows are
// (class, score, xmin, ymin, xmax, ymax).
//
// Run materializes a throwaway arena per call — there is exactly one
// execution code path, the planned executor behind Session. The returned
// tensors own that arena's output slots, so they remain valid indefinitely.
// For repeated or concurrent inference prefer NewSession, which reuses its
// arena and makes steady-state execution allocation-free.
func (m *Module) Run(input *tensor.Tensor) ([]*tensor.Tensor, error) {
	if err := m.checkInput(input); err != nil {
		return nil, err
	}
	s, err := m.NewSession()
	if err != nil {
		return nil, err
	}
	return s.Run(context.Background(), input)
}

// PlanStats summarizes the module's compile-time execution plan (arena slot
// packing, level schedule). The zero value is returned for prediction-only
// modules, which carry no plan.
func (m *Module) PlanStats() PlanStats {
	if m.plan == nil {
		return PlanStats{}
	}
	return m.plan.stats
}

// nodeBuffers carries one node's preallocated arena slots for a Session run.
// A nil *nodeBuffers (Module.Run's allocating path) means "allocate fresh".
type nodeBuffers struct {
	// out receives the node's output (nil for data-dependent outputs such
	// as the SSD head, and for aliasing nodes).
	out *tensor.Tensor
	// pad is the blocked direct convolution's explicit-padding scratch.
	pad *tensor.Tensor
	// wino is the blocked winograd convolution's transform scratch, sized
	// by ops.WinogradScratchShape for the walk the layer's size picks.
	wino *tensor.Tensor
	// scratch is the two-hop layout transform's NCHW intermediate.
	scratch *tensor.Tensor
	// concat is the reused operand slice for concat nodes.
	concat []*tensor.Tensor
}

func (b *nodeBuffers) outT() *tensor.Tensor {
	if b == nil {
		return nil
	}
	return b.out
}

func (b *nodeBuffers) padT() *tensor.Tensor {
	if b == nil {
		return nil
	}
	return b.pad
}

func (b *nodeBuffers) winoT() *tensor.Tensor {
	if b == nil {
		return nil
	}
	return b.wino
}

func (b *nodeBuffers) scratchT() *tensor.Tensor {
	if b == nil {
		return nil
	}
	return b.scratch
}

// exec runs one node. vals is the slot-indexed value table for the current
// inference; buf, when non-nil, provides the destination buffers of a
// Session arena.
func (m *Module) exec(n *graph.Node, vals []*tensor.Tensor, input *tensor.Tensor, pf ops.ParallelFor, buf *nodeBuffers) (*tensor.Tensor, error) {
	arg := func(i int) *tensor.Tensor { return vals[m.slot[n.Inputs[i]]] }
	switch n.Op {
	case graph.OpInput:
		return input, nil

	case graph.OpConv2D:
		epi := ops.Epilogue{Bias: n.Bias, ReLU: n.FusedReLU}
		if n.FusedResidual != nil {
			epi.Residual = vals[m.slot[n.FusedResidual]]
		}
		switch n.Sched.Layout.Kind {
		case tensor.LayoutNCHWc:
			depthwise := n.Conv.Depthwise(n.Inputs[0].OutShape.Dims[1])
			if n.Sched.Algorithm == machine.AlgoWinograd {
				return ops.Conv2DWinogradNCHWcInto(buf.outT(), buf.winoT(), arg(0), m.packed[n], n.Conv,
					n.Sched.ICBlock, n.Sched.OCBlock, epi, pf), nil
			}
			if depthwise {
				return ops.Conv2DDepthwiseNCHWcInto(buf.outT(), arg(0), m.packed[n], n.Conv,
					n.Sched.OCBlock, n.Sched.RegN, epi, pf), nil
			}
			return ops.Conv2DNCHWcInto(buf.outT(), buf.padT(), arg(0), m.packed[n], n.Conv,
				n.Sched.ICBlock, n.Sched.OCBlock, n.Sched.RegN, epi, pf), nil
		case tensor.LayoutNHWC:
			return ops.Conv2DNHWCInto(buf.outT(), arg(0), n.Weight, n.Conv, epi, pf), nil
		default:
			return ops.Conv2DNCHWInto(buf.outT(), arg(0), n.Weight, n.Conv, epi, pf), nil
		}

	case graph.OpBatchNorm:
		return ops.BatchNormInferenceInto(buf.outT(), arg(0), n.BN, pf), nil
	case graph.OpReLU:
		return ops.ReLUInto(buf.outT(), arg(0), pf), nil
	case graph.OpDropout:
		return arg(0), nil
	case graph.OpPool:
		return ops.Pool2DInto(buf.outT(), arg(0), n.Pool, pf), nil
	case graph.OpGlobalAvgPool:
		return ops.GlobalAvgPoolInto(buf.outT(), arg(0), pf), nil
	case graph.OpAdd:
		return ops.AddInto(buf.outT(), arg(0), arg(1), pf), nil
	case graph.OpConcat:
		var ins []*tensor.Tensor
		if buf != nil && buf.concat != nil {
			ins = buf.concat
		} else {
			ins = make([]*tensor.Tensor, len(n.Inputs))
		}
		for i := range n.Inputs {
			ins[i] = arg(i)
		}
		return ops.ConcatInto(buf.outT(), ins, pf), nil
	case graph.OpFlatten:
		return ops.FlattenInto(buf.outT(), arg(0)), nil
	case graph.OpDense:
		return ops.DenseInto(buf.outT(), arg(0), n.Weight, n.Bias, false, pf), nil
	case graph.OpSoftmax:
		return ops.SoftmaxInto(buf.outT(), arg(0)), nil
	case graph.OpLayoutTransform:
		return tensor.TransformInto(buf.outT(), buf.scratchT(), arg(0), n.Transform), nil
	case graph.OpSSDHead:
		return m.execSSDHead(n, vals)
	}
	return nil, fmt.Errorf("unsupported op %v", n.Op)
}

// buildAnchors concatenates the per-scale MultiBoxPrior outputs for one SSD
// head at compile time.
func buildAnchors(n *graph.Node) *tensor.Tensor {
	var all []float32
	total := 0
	for i := 0; i < len(n.Inputs); i += 2 {
		cls := n.Inputs[i].OutShape
		h, w := cls.Dims[2], cls.Dims[3]
		a := ops.MultiBoxPrior(h, w, n.SSD.Sizes[i/2], n.SSD.Ratios[i/2])
		all = append(all, a.Data...)
		total += a.Shape[1]
	}
	return tensor.FromData(tensor.Flat(), all, 1, total, 4)
}

// execSSDHead gathers the per-scale class/location convolution outputs,
// rearranges them into per-anchor order, applies softmax over classes, and
// decodes+NMSes via MultiBoxDetection. Its output size depends on how many
// detections survive NMS, so this node always allocates (sessions leave its
// arena slot empty).
func (m *Module) execSSDHead(n *graph.Node, vals []*tensor.Tensor) (*tensor.Tensor, error) {
	numClasses := n.SSD.NumClasses
	anchorsT := m.anchors[n]
	numAnchors := anchorsT.Shape[1]

	clsLogits := make([]float32, (numClasses+1)*numAnchors) // [class][anchor]
	locPred := make([]float32, numAnchors*4)

	base := 0
	for i := 0; i < len(n.Inputs); i += 2 {
		cls := vals[m.slot[n.Inputs[i]]]
		loc := vals[m.slot[n.Inputs[i+1]]]
		if cls.Layout.Kind != tensor.LayoutNCHW || loc.Layout.Kind != tensor.LayoutNCHW {
			return nil, fmt.Errorf("ssd head requires NCHW inputs, got %v/%v", cls.Layout, loc.Layout)
		}
		per := len(n.SSD.Sizes[i/2]) + len(n.SSD.Ratios[i/2]) - 1
		h, w := cls.Shape[2], cls.Shape[3]
		// cls channels: a*(numClasses+1)+c; anchor index: (y*w+x)*per + a.
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				for a := 0; a < per; a++ {
					anchor := base + (y*w+x)*per + a
					for c := 0; c <= numClasses; c++ {
						v := cls.Data[((a*(numClasses+1)+c)*h+y)*w+x]
						clsLogits[c*numAnchors+anchor] = v
					}
					for k := 0; k < 4; k++ {
						locPred[anchor*4+k] = loc.Data[((a*4+k)*h+y)*w+x]
					}
				}
			}
		}
		base += per * h * w
	}

	// Softmax over classes per anchor.
	probs := make([]float32, len(clsLogits))
	for a := 0; a < numAnchors; a++ {
		maxV := clsLogits[a]
		for c := 1; c <= numClasses; c++ {
			if v := clsLogits[c*numAnchors+a]; v > maxV {
				maxV = v
			}
		}
		var sum float64
		for c := 0; c <= numClasses; c++ {
			e := math.Exp(float64(clsLogits[c*numAnchors+a] - maxV))
			probs[c*numAnchors+a] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for c := 0; c <= numClasses; c++ {
			probs[c*numAnchors+a] *= inv
		}
	}

	clsT := tensor.FromData(tensor.Flat(), probs, 1, numClasses+1, numAnchors)
	locT := tensor.FromData(tensor.Flat(), locPred, 1, numAnchors*4)
	dets := ops.MultiBoxDetection(clsT, locT, anchorsT, n.SSD.Detection)

	out := tensor.New(tensor.Flat(), 1, len(dets), 6)
	for i, d := range dets {
		off := i * 6
		out.Data[off] = float32(d.Class)
		out.Data[off+1] = d.Score
		out.Data[off+2] = d.Box[0]
		out.Data[off+3] = d.Box[1]
		out.Data[off+4] = d.Box[2]
		out.Data[off+5] = d.Box[3]
	}
	return out, nil
}
