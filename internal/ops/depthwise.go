package ops

import (
	"fmt"

	"repro/internal/tensor"
)

// This file implements the depthwise convolution template in the blocked
// NCHW[x]c layout — the kernel behind MobileNet-style depthwise-separable
// networks. A depthwise convolution has one group per channel: output channel
// c reads only input channel c, so the blocked kernel maps lane v of channel
// block co straight to lane v of the same output block. That forces the
// schedule to share one channel block factor (ic_bn == oc_bn), and turns the
// inner loop into an element-wise multiply-accumulate across the block's
// lanes — no channel reduction, no broadcast: the laneMAC microkernel, one
// vector multiply and add per lane vector and tap.
//
// Weights are packed at compile time with tensor.PackWeights(w, 1, bn): the
// logical OIHW weight is (C, 1, KH, KW), and OIHW[1]i[bn]o degenerates to a
// dense (C/bn, KH, KW, bn) slab whose innermost dimension matches the
// activation lanes.

// Conv2DDepthwiseNCHWc computes a depthwise convolution over an NCHW[bn]c
// input with OIHW[1]i[bn]o weights, register-blocking reg_n output positions
// exactly like the dense direct template. Every kernel shape runs one laneMAC
// per kernel row.
func Conv2DDepthwiseNCHWc(in, weight *tensor.Tensor, attrs Conv2DAttrs, bn, regN int, epi Epilogue, pf ParallelFor) *tensor.Tensor {
	return Conv2DDepthwiseNCHWcInto(nil, nil, in, weight, attrs, bn, regN, epi, pf)
}

// Conv2DDepthwiseNCHWcInto is Conv2DDepthwiseNCHWc writing into
// caller-provided buffers: dst receives the output and padScratch (sized per
// PaddedShapeNCHWc, zero-filled at allocation) holds the explicitly padded
// input. Either may be nil, in which case it is allocated.
func Conv2DDepthwiseNCHWcInto(dst, padScratch *tensor.Tensor, in, weight *tensor.Tensor, attrs Conv2DAttrs, bn, regN int, epi Epilogue, pf ParallelFor) *tensor.Tensor {
	if in.Layout.Kind != tensor.LayoutNCHWc || in.Layout.BlockC != bn {
		panic(fmt.Sprintf("ops: Conv2DDepthwiseNCHWc expects NCHW%dc input, got %v", bn, in.Layout))
	}
	if weight.Layout.Kind != tensor.LayoutOIHWio || weight.Layout.BlockC != 1 || weight.Layout.BlockK != bn {
		panic(fmt.Sprintf("ops: Conv2DDepthwiseNCHWc expects OIHW1i%do weight, got %v", bn, weight.Layout))
	}
	if regN <= 0 {
		panic("ops: reg_n must be positive")
	}
	n, cOuter, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	kh, kw := weight.Shape[2], weight.Shape[3]
	if weight.Shape[0] != cOuter || attrs.OutC != cOuter*bn || !attrs.Depthwise(cOuter*bn) {
		panic(fmt.Sprintf("ops: depthwise weight %v inconsistent with %d blocked channels and attrs %+v", weight.Shape, cOuter*bn, attrs))
	}
	oh, ow := attrs.OutSize(h, w)
	out := tensor.EnsureDst(dst, tensor.NCHWc(bn), n, cOuter, oh, ow, bn)
	if pf == nil {
		pf = Serial
	}

	padded := padNCHWc(in, attrs.PadH, attrs.PadW, padScratch)
	ph, pw := padded.Shape[2], padded.Shape[3]
	// Like the dense template, the kernel indexes the padded buffer without
	// per-access bounds checks; a geometry that cannot cover the output must
	// fail loudly here.
	if need := (oh-1)*attrs.StrideH + kh; ph < need {
		panic(fmt.Sprintf("ops: padded input height %d cannot cover output height %d (need %d rows for stride %d, kernel %d)",
			ph, oh, need, attrs.StrideH, kh))
	}
	if need := (ow-1)*attrs.StrideW + kw; pw < need {
		panic(fmt.Sprintf("ops: padded input width %d cannot cover output width %d (need %d cols for stride %d, kernel %d)",
			pw, ow, need, attrs.StrideW, kw))
	}

	// One parallel unit per (batch, channel-block, out-row) band; the
	// accumulator tile lives on the stack, set up once per thread range.
	pf(n*cOuter*oh, func(lo, hi int) {
		var accArr [MaxAccTile]float32
		var acc []float32
		if regN*bn <= len(accArr) {
			acc = accArr[:regN*bn]
		} else {
			acc = make([]float32, regN*bn)
		}
		for unit := lo; unit < hi; unit++ {
			y := unit % oh
			rest := unit / oh
			co := rest % cOuter
			b := rest / cOuter
			wCO := weight.Data[co*kh*kw*bn:]
			inRow := ((b*cOuter+co)*ph + y*attrs.StrideH) * pw
			outRow := ((b*cOuter+co)*oh + y) * ow
			for x0 := 0; x0 < ow; x0 += regN {
				tile := min(regN, ow-x0)
				a := acc[:tile*bn]
				clear(a)
				// One kernel row is one laneMAC over its kw taps, which are
				// contiguous in NCHW[x]c and in the packed weight.
				for r := 0; r < kh; r++ {
					laneMAC(a, padded.Data[(inRow+r*pw+x0*attrs.StrideW)*bn:], wCO[r*kw*bn:],
						tile, kw, attrs.StrideW*bn, bn)
				}
				storeTile(out.Data, a, epi, (outRow+x0)*bn, co, bn)
			}
		}
	})
	return out
}
