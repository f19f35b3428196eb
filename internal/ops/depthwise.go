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
// lanes — no channel reduction, no broadcast — which is exactly the vmulps/
// vfmadd pattern a SIMD depthwise kernel issues per lane vector.
//
// Weights are packed at compile time with tensor.PackWeights(w, 1, bn): the
// logical OIHW weight is (C, 1, KH, KW), and OIHW[1]i[bn]o degenerates to a
// dense (C/bn, KH, KW, bn) slab whose innermost dimension matches the
// activation lanes.

// Conv2DDepthwiseNCHWc computes a depthwise convolution over an NCHW[bn]c
// input with OIHW[1]i[bn]o weights, register-blocking reg_n output positions
// exactly like the dense direct template.
func Conv2DDepthwiseNCHWc(in, weight *tensor.Tensor, attrs Conv2DAttrs, bn, regN int, unrollKer bool, epi Epilogue, pf ParallelFor) *tensor.Tensor {
	return Conv2DDepthwiseNCHWcInto(nil, nil, in, weight, attrs, bn, regN, unrollKer, epi, pf)
}

// Conv2DDepthwiseNCHWcInto is Conv2DDepthwiseNCHWc writing into
// caller-provided buffers: dst receives the output and padScratch (sized per
// PaddedShapeNCHWc, zero-filled at allocation) holds the explicitly padded
// input. Either may be nil, in which case it is allocated.
func Conv2DDepthwiseNCHWcInto(dst, padScratch *tensor.Tensor, in, weight *tensor.Tensor, attrs Conv2DAttrs, bn, regN int, unrollKer bool, epi Epilogue, pf ParallelFor) *tensor.Tensor {
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
			wBase := co * kh * kw * bn
			rowBase := ((b*cOuter+co)*ph + y*attrs.StrideH) * pw * bn
			dwConvRow(padded, weight, out, acc, attrs, epi,
				b, co, y, cOuter, bn, regN, unrollKer, kh, kw, oh, ow, pw, wBase, rowBase)
		}
	})
	return out
}

// dwConvRow computes one (batch, channel-block, out-row) band of the blocked
// depthwise kernel. Factored out of the parallel dispatch so a range body
// reuses one accumulator tile across its rows.
func dwConvRow(padded, weight, out *tensor.Tensor, acc []float32, attrs Conv2DAttrs, epi Epilogue,
	b, co, y, cOuter, bn, regN int, unrollKer bool, kh, kw, oh, ow, pw, wBase, rowBase int) {
	for owo := 0; owo < ow; owo += regN {
		tile := regN
		if ow-owo < tile {
			tile = ow - owo
		}
		for i := range acc[:tile*bn] {
			acc[i] = 0
		}

		if unrollKer && kh == 3 && kw == 3 {
			dw3x3Tile(padded.Data, weight.Data, acc, rowBase, wBase, pw, bn, tile, owo, attrs.StrideW)
		} else {
			for r := 0; r < kh; r++ {
				rowOff := rowBase + r*pw*bn
				for s := 0; s < kw; s++ {
					wVec := weight.Data[wBase+(r*kw+s)*bn : wBase+(r*kw+s)*bn+bn]
					for i := 0; i < tile; i++ {
						iv := padded.Data[rowOff+((owo+i)*attrs.StrideW+s)*bn : rowOff+((owo+i)*attrs.StrideW+s)*bn+bn]
						dwmac(acc[i*bn:i*bn+bn], iv, wVec, bn)
					}
				}
			}
		}

		outBase := (((b*cOuter+co)*oh+y)*ow + owo) * bn
		for i := 0; i < tile; i++ {
			dst := out.Data[outBase+i*bn : outBase+(i+1)*bn]
			a := acc[i*bn : (i+1)*bn]
			if epi.Bias != nil {
				bvec := epi.Bias[co*bn : co*bn+bn]
				for v := range a {
					a[v] += bvec[v]
				}
			}
			if epi.Residual != nil {
				res := epi.Residual.Data[outBase+i*bn : outBase+(i+1)*bn]
				for v := range a {
					a[v] += res[v]
				}
			}
			if epi.ReLU {
				for v := range a {
					a[v] = relu32(a[v])
				}
			}
			copy(dst, a)
		}
	}
}

// dwmac computes a[:bn] += x[:bn] * w[:bn] lane-wise — the depthwise
// counterpart of rankK. The vector-width block sizes are specialized with
// fixed-size array pointers so the constant-bound loop compiles without
// per-element bounds checks.
func dwmac(a, x, w []float32, bn int) {
	switch bn {
	case 4:
		ap, xp, wp := (*[4]float32)(a), (*[4]float32)(x), (*[4]float32)(w)
		for v := 0; v < 4; v++ {
			ap[v] += xp[v] * wp[v]
		}
	case 8:
		ap, xp, wp := (*[8]float32)(a), (*[8]float32)(x), (*[8]float32)(w)
		for v := 0; v < 8; v++ {
			ap[v] += xp[v] * wp[v]
		}
	case 16:
		ap, xp, wp := (*[16]float32)(a), (*[16]float32)(x), (*[16]float32)(w)
		for v := 0; v < 16; v++ {
			ap[v] += xp[v] * wp[v]
		}
	default:
		for v := range w {
			a[v] += x[v] * w[v]
		}
	}
}

// dw3x3Tile is the unroll_ker=true specialization for the 3x3 depthwise
// kernel (every MobileNet depthwise layer): the kernel-entry loop is fully
// unrolled and the vector-width block sizes dispatch to bounds-check-free
// bodies.
func dw3x3Tile(in, wt, acc []float32, rowBase, wBase, pw, bn, tile, owo, strideW int) {
	switch bn {
	case 4:
		dw3x3Tile4(in, wt, acc, rowBase, wBase, pw, tile, owo, strideW)
	case 8:
		dw3x3Tile8(in, wt, acc, rowBase, wBase, pw, tile, owo, strideW)
	case 16:
		dw3x3Tile16(in, wt, acc, rowBase, wBase, pw, tile, owo, strideW)
	default:
		for r := 0; r < 3; r++ {
			rowOff := rowBase + r*pw*bn
			wR := wBase + r*3*bn
			w0 := wt[wR : wR+bn]
			w1 := wt[wR+bn : wR+2*bn]
			w2 := wt[wR+2*bn : wR+3*bn]
			for i := 0; i < tile; i++ {
				base := rowOff + (owo+i)*strideW*bn
				x0 := in[base : base+bn]
				x1 := in[base+bn : base+2*bn]
				x2 := in[base+2*bn : base+3*bn]
				a := acc[i*bn : i*bn+bn]
				for v := range a {
					a[v] += x0[v]*w0[v] + x1[v]*w1[v] + x2[v]*w2[v]
				}
			}
		}
	}
}

// The bn-specialized 3x3 depthwise tile bodies: bn fixed at a compile-time
// constant and every slice re-expressed as a fixed-size array pointer, which
// eliminates the bounds checks on the three lane-wise multiply-accumulates.

func dw3x3Tile4(in, wt, acc []float32, rowBase, wBase, pw, tile, owo, strideW int) {
	const bn = 4
	for r := 0; r < 3; r++ {
		rowOff := rowBase + r*pw*bn
		wR := wBase + r*3*bn
		w0 := (*[bn]float32)(wt[wR:])
		w1 := (*[bn]float32)(wt[wR+bn:])
		w2 := (*[bn]float32)(wt[wR+2*bn:])
		for i := 0; i < tile; i++ {
			base := rowOff + (owo+i)*strideW*bn
			x0 := (*[bn]float32)(in[base:])
			x1 := (*[bn]float32)(in[base+bn:])
			x2 := (*[bn]float32)(in[base+2*bn:])
			a := (*[bn]float32)(acc[i*bn:])
			for v := 0; v < bn; v++ {
				a[v] += x0[v]*w0[v] + x1[v]*w1[v] + x2[v]*w2[v]
			}
		}
	}
}

func dw3x3Tile8(in, wt, acc []float32, rowBase, wBase, pw, tile, owo, strideW int) {
	const bn = 8
	for r := 0; r < 3; r++ {
		rowOff := rowBase + r*pw*bn
		wR := wBase + r*3*bn
		w0 := (*[bn]float32)(wt[wR:])
		w1 := (*[bn]float32)(wt[wR+bn:])
		w2 := (*[bn]float32)(wt[wR+2*bn:])
		for i := 0; i < tile; i++ {
			base := rowOff + (owo+i)*strideW*bn
			x0 := (*[bn]float32)(in[base:])
			x1 := (*[bn]float32)(in[base+bn:])
			x2 := (*[bn]float32)(in[base+2*bn:])
			a := (*[bn]float32)(acc[i*bn:])
			for v := 0; v < bn; v++ {
				a[v] += x0[v]*w0[v] + x1[v]*w1[v] + x2[v]*w2[v]
			}
		}
	}
}

func dw3x3Tile16(in, wt, acc []float32, rowBase, wBase, pw, tile, owo, strideW int) {
	const bn = 16
	for r := 0; r < 3; r++ {
		rowOff := rowBase + r*pw*bn
		wR := wBase + r*3*bn
		w0 := (*[bn]float32)(wt[wR:])
		w1 := (*[bn]float32)(wt[wR+bn:])
		w2 := (*[bn]float32)(wt[wR+2*bn:])
		for i := 0; i < tile; i++ {
			base := rowOff + (owo+i)*strideW*bn
			x0 := (*[bn]float32)(in[base:])
			x1 := (*[bn]float32)(in[base+bn:])
			x2 := (*[bn]float32)(in[base+2*bn:])
			a := (*[bn]float32)(acc[i*bn:])
			for v := 0; v < bn; v++ {
				a[v] += x0[v]*w0[v] + x1[v]*w1[v] + x2[v]*w2[v]
			}
		}
	}
}
