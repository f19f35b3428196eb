// Package ops implements the CNN operators NeoCPU-Go executes: the direct
// convolution template of the paper's Algorithm 1 (blocked NCHW[x]c layout,
// register blocking along out_width on one rank-k microkernel, fused
// epilogues), reference convolutions in NCHW for correctness checking
// and for the library baselines, and the memory-bound operators that surround
// convolutions in CNN models (pooling, batch norm, activations, element-wise
// arithmetic, dense layers and the SSD multibox head).
//
// All kernels are pure functions over tensor.Tensor values. Parallel kernels
// accept a ParallelFor so the caller chooses the threading runtime (the
// custom thread pool, the OpenMP-style pool, or serial execution).
package ops

import (
	"repro/internal/tensor"
)

// ParallelFor runs body over [0, n), possibly concurrently: each
// participating thread receives exactly one contiguous [lo, hi) range in a
// single body call, the ranges are disjoint and cover [0, n), and an inline,
// nested or serial execution is the single call body(0, n). Kernels set up
// their per-thread scratch (accumulator tiles) once at the top of the range
// body and iterate their units in ascending order; every unit writes disjoint
// output, so results are bit-identical under every ParallelFor and every
// thread count. The implementations live in internal/threadpool; Serial is
// the default.
type ParallelFor func(n int, body func(lo, hi int))

// Serial is the trivial ParallelFor: the whole range on the calling
// goroutine.
func Serial(n int, body func(lo, hi int)) {
	if n > 0 {
		body(0, n)
	}
}

// maxAccTile is the element count of the kernels' stack-resident accumulator
// tile: the widest reg_n (32) times the widest channel block (64) the
// schedule search emits, so no searched schedule heap-allocates its tile.
const maxAccTile = 32 * 64

// Conv2DAttrs carries the geometry attributes of a convolution node.
type Conv2DAttrs struct {
	OutC, KH, KW     int
	StrideH, StrideW int
	PadH, PadW       int
	// Groups partitions the channels: input channels split into Groups
	// disjoint sets and each output channel reduces over only its group's
	// inputs. 0 or 1 means a dense convolution; Groups equal to the input
	// channel count is a depthwise convolution. The weight's second dimension
	// is in_channels/Groups.
	Groups int
}

// OutSize returns the output spatial size for an input of h×w.
func (a Conv2DAttrs) OutSize(h, w int) (int, int) {
	return (h+2*a.PadH-a.KH)/a.StrideH + 1, (w+2*a.PadW-a.KW)/a.StrideW + 1
}

// GroupCount normalizes the Groups field: the zero value means one dense
// group.
func (a Conv2DAttrs) GroupCount() int {
	if a.Groups <= 1 {
		return 1
	}
	return a.Groups
}

// Depthwise reports whether the attributes describe a depthwise convolution
// over inC input channels: one group per channel.
func (a Conv2DAttrs) Depthwise(inC int) bool {
	return a.GroupCount() > 1 && a.Groups == inC && a.OutC == inC
}

// Epilogue describes computation fused into a convolution's output store:
// bias addition, residual addition and ReLU, in that order. Fusing these
// memory-bound operators into the CONV raises arithmetic intensity
// (Section 2.2 of the paper).
type Epilogue struct {
	// Bias, if non-nil, has one entry per output channel.
	Bias []float32
	// Residual, if non-nil, is added element-wise; it must share the
	// convolution output's layout and shape.
	Residual *tensor.Tensor
	// ReLU clamps negatives to zero after the additions.
	ReLU bool
}

func relu32(v float32) float32 {
	if v < 0 {
		return 0
	}
	return v
}
