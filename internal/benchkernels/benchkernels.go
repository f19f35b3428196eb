// Package benchkernels defines the shared convolution-algorithm benchmark
// workload: the mid-network ResNet convolution (64x28x28 -> 64, 3x3 stride 1)
// that both the Go benchmark harness (bench_test.go) and the machine-readable
// emitter (neocpu-bench -json) time. Keeping the geometry and kernel
// invocations in one place guarantees the BENCH_<target>.json trajectory
// measures exactly the matchup BenchmarkConvAlgorithm reports.
package benchkernels

import (
	"repro/internal/ops"
	"repro/internal/tensor"
)

// ConvCase returns the benchmark convolution workload: deterministic random
// NCHW input, OIHW weight, and the 3x3 stride-1 pad-1 attributes.
func ConvCase() (*tensor.Tensor, *tensor.Tensor, ops.Conv2DAttrs) {
	in := tensor.New(tensor.NCHW(), 1, 64, 28, 28)
	in.FillRandom(1, 1)
	wt := tensor.New(tensor.OIHW(), 64, 64, 3, 3)
	wt.FillRandom(2, 0.5)
	return in, wt, ops.Conv2DAttrs{OutC: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
}

// DirectBlocked prepares the direct-template benchmark at the given block
// factor and returns one steady-state iteration: all buffers (packed weight,
// padding scratch, destination) are preallocated so the timed loop measures
// only the kernel.
func DirectBlocked(blk int) func() {
	in, wt, attrs := ConvCase()
	bi := tensor.ToNCHWc(in, blk)
	bw := tensor.PackWeights(wt, blk, blk)
	pad := tensor.New(bi.Layout, ops.PaddedShapeNCHWc(bi.Shape, attrs)...)
	dst := tensor.New(tensor.NCHWc(blk), 1, attrs.OutC/blk, 28, 28, blk)
	return func() {
		ops.Conv2DNCHWcInto(dst, pad, bi, bw, attrs, blk, blk, 8, ops.Epilogue{}, nil)
	}
}

// WinogradBlocked prepares the blocked Winograd benchmark at the given block
// factor: weights pre-transformed (U = G g Gᵀ), transform scratch and
// destination preallocated.
func WinogradBlocked(blk int) func() {
	in, wt, attrs := ConvCase()
	bi := tensor.ToNCHWc(in, blk)
	u := ops.WinogradWeightTransformNCHWc(wt, blk, blk)
	scratch := tensor.New(tensor.Flat(), ops.WinogradScratchShape(bi.Shape, attrs)...)
	dst := tensor.New(tensor.NCHWc(blk), 1, attrs.OutC/blk, 28, 28, blk)
	return func() {
		ops.Conv2DWinogradNCHWcInto(dst, scratch, bi, u, attrs, blk, blk, ops.Epilogue{}, nil)
	}
}
