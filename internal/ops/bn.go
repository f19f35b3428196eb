package ops

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// BatchNormParams carries the inference-time parameters of a BatchNorm node:
// per-channel scale (gamma), shift (beta) and the moving statistics.
type BatchNormParams struct {
	Gamma, Beta, Mean, Var []float32
	Eps                    float32
}

// Channels returns the channel count of the parameters.
func (p BatchNormParams) Channels() int { return len(p.Gamma) }

// scaleShift converts the four-parameter form into the two-parameter
// inference form: y = x*scale + shift.
func (p BatchNormParams) scaleShift() (scale, shift []float32) {
	c := p.Channels()
	scale = make([]float32, c)
	shift = make([]float32, c)
	for i := 0; i < c; i++ {
		s := p.Gamma[i] / float32(math.Sqrt(float64(p.Var[i]+p.Eps)))
		scale[i] = s
		shift[i] = p.Beta[i] - p.Mean[i]*s
	}
	return scale, shift
}

// BatchNormInference applies y = gamma*(x-mean)/sqrt(var+eps) + beta per
// channel. Layout-tolerant: accepts NCHW and NCHW[x]c (Section 3.2 category
// 2). In optimized graphs this operator is folded into the preceding
// convolution by FoldBatchNorm and never executes.
func BatchNormInference(in *tensor.Tensor, p BatchNormParams, pf ParallelFor) *tensor.Tensor {
	return BatchNormInferenceInto(nil, in, p, pf)
}

// BatchNormInferenceInto is BatchNormInference writing into a caller-provided
// destination (nil dst allocates). The scale/shift working vectors are still
// derived per call; optimized graphs fold BatchNorm away entirely, so this
// path is only reached with DisableBNFold.
func BatchNormInferenceInto(dst, in *tensor.Tensor, p BatchNormParams, pf ParallelFor) *tensor.Tensor {
	scale, shift := p.scaleShift()
	switch in.Layout.Kind {
	case tensor.LayoutNCHW:
		n, c, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
		if c != p.Channels() {
			panic(fmt.Sprintf("ops: batchnorm channel mismatch %d vs %d", c, p.Channels()))
		}
		out := tensor.EnsureDst(dst, in.Layout, in.Shape...)
		if pf == nil {
			pf = Serial
		}
		pf(n*c, func(lo, hi int) {
			for unit := lo; unit < hi; unit++ {
				ch := unit % c
				s, sh := scale[ch], shift[ch]
				src := in.Data[unit*h*w : (unit+1)*h*w]
				dst := out.Data[unit*h*w : (unit+1)*h*w]
				for i, v := range src {
					dst[i] = v*s + sh
				}
			}
		})
		return out
	case tensor.LayoutNCHWc:
		n, co, h, w, x := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3], in.Shape[4]
		if co*x != p.Channels() {
			panic(fmt.Sprintf("ops: batchnorm channel mismatch %d vs %d", co*x, p.Channels()))
		}
		out := tensor.EnsureDst(dst, in.Layout, in.Shape...)
		if pf == nil {
			pf = Serial
		}
		pf(n*co, func(lo, hi int) {
			for unit := lo; unit < hi; unit++ {
				ch := unit % co
				src := in.Data[unit*h*w*x:]
				dst := out.Data[unit*h*w*x:]
				for pix := 0; pix < h*w; pix++ {
					for ci := 0; ci < x; ci++ {
						v := src[pix*x+ci]
						dst[pix*x+ci] = v*scale[ch*x+ci] + shift[ch*x+ci]
					}
				}
			}
		})
		return out
	default:
		panic(fmt.Sprintf("ops: BatchNormInference supports NCHW and NCHWc, got %v", in.Layout))
	}
}

// FoldBatchNorm folds an inference BatchNorm into the preceding convolution's
// weight and bias: W'[o,...] = W[o,...]*scale[o], b'[o] = b[o]*scale[o] +
// shift[o]. This is one of the "simplifying inference" graph optimizations
// inherited from the TVM stack (Section 3). The weight must be OIHW and is
// scaled in place, so the caller must hold no other use of the pre-fold
// values; the folded bias is returned in a new slice.
func FoldBatchNorm(weight *tensor.Tensor, bias []float32, p BatchNormParams) []float32 {
	if weight.Layout.Kind != tensor.LayoutOIHW {
		panic(fmt.Sprintf("ops: FoldBatchNorm expects OIHW weight, got %v", weight.Layout))
	}
	o := weight.Shape[0]
	if o != p.Channels() {
		panic(fmt.Sprintf("ops: FoldBatchNorm channel mismatch %d vs %d", o, p.Channels()))
	}
	scale, shift := p.scaleShift()
	// Shape-only weights (prediction-only graphs) keep their empty payload;
	// the folded bias below is still produced so graph structure matches.
	if len(weight.Data) > 0 {
		perOut := weight.NumElements() / o
		for k := 0; k < o; k++ {
			s := scale[k]
			seg := weight.Data[k*perOut : (k+1)*perOut]
			for i := range seg {
				seg[i] *= s
			}
		}
	}
	newB := make([]float32, o)
	for k := 0; k < o; k++ {
		var b float32
		if bias != nil {
			b = bias[k]
		}
		newB[k] = b*scale[k] + shift[k]
	}
	return newB
}
