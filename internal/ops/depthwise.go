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
// lanes — no channel reduction, no broadcast: the laneWindow microkernel,
// which keeps a run of output positions in registers across the whole
// kernel window and stores each once, through the fused epilogue.
//
// Weights are packed at compile time with tensor.PackWeights(w, 1, bn): the
// logical OIHW weight is (C, 1, KH, KW), and OIHW[1]i[bn]o degenerates to a
// dense (C/bn, KH, KW, bn) slab whose innermost dimension matches the
// activation lanes.

// Conv2DDepthwiseNCHWc computes a depthwise convolution over an NCHW[bn]c
// input with OIHW[1]i[bn]o weights, register-blocking reg_n output positions
// like the dense direct template. It reads the unpadded input: a window that
// overlaps the padding is clipped to the taps inside the image.
func Conv2DDepthwiseNCHWc(in, weight *tensor.Tensor, attrs Conv2DAttrs, bn, regN int, epi Epilogue, pf ParallelFor) *tensor.Tensor {
	return Conv2DDepthwiseNCHWcInto(nil, in, weight, attrs, bn, regN, epi, pf)
}

// Conv2DDepthwiseNCHWcInto is Conv2DDepthwiseNCHWc writing into a
// caller-provided destination (nil dst allocates).
func Conv2DDepthwiseNCHWcInto(dst *tensor.Tensor, in, weight *tensor.Tensor, attrs Conv2DAttrs, bn, regN int, epi Epilogue, pf ParallelFor) *tensor.Tensor {
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
	sh, sw, padH, padW := attrs.StrideH, attrs.StrideW, attrs.PadH, attrs.PadW
	// Output columns [xa, xb) see their whole window inside the image; every
	// other column is clipped on at least one side.
	xa := (padW + sw - 1) / sw
	xb := 0
	if w+padW >= kw {
		xb = (w+padW-kw)/sw + 1
	}

	// One parallel unit per (batch, channel-block, out-row) band.
	pf(n*cOuter*oh, func(lo, hi int) {
		for unit := lo; unit < hi; unit++ {
			y := unit % oh
			rest := unit / oh
			co := rest % cOuter
			b := rest / cOuter
			// The kernel rows [r0, r1) of this output row inside the image.
			iy := y*sh - padH
			r0, r1 := max(0, -iy), min(kh, h-iy)
			plane := in.Data[(b*cOuter+co)*h*w*bn : (b*cOuter+co+1)*h*w*bn]
			wCO := weight.Data[co*kh*kw*bn : (co+1)*kh*kw*bn]
			outRow := ((b*cOuter+co)*oh + y) * ow
			var bias []float32
			if epi.Bias != nil {
				bias = epi.Bias[co*bn : co*bn+bn]
			}
			for x := 0; x < ow; {
				// An unclipped run of up to reg_n columns, or one clipped
				// column with its taps [s0, s1).
				cols := 1
				if x >= xa && x < xb {
					cols = min(regN, xb-x)
				}
				ix := x*sw - padW
				s0, s1 := max(0, -ix), min(kw, w-ix)
				rows, taps := r1-r0, s1-s0
				var xs, ws, res []float32
				if rows > 0 && taps > 0 {
					xs = plane[((iy+r0)*w+ix+s0)*bn:]
					ws = wCO[(r0*kw+s0)*bn:]
				}
				if epi.Residual != nil {
					res = epi.Residual.Data[(outRow+x)*bn:]
				}
				laneWindow(out.Data[(outRow+x)*bn:], xs, ws, bias, res,
					cols, rows, taps, sw*bn, w*bn, kw*bn, bn, epi.ReLU)
				x += cols
			}
		}
	})
	return out
}
