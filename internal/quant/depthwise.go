package quant

import (
	"fmt"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// Conv2DInt8DepthwiseNCHWc is the quantized depthwise convolution: int8
// activations in NCHW[bn]c, int8 per-channel weights in the degenerate
// OIHW[1]i[bn]o layout (see ops.Conv2DDepthwiseNCHWc), int32 lane-wise
// accumulation, and float32 output with the fused epilogue — the scalar
// stand-in for a vpmaddwd-per-lane depthwise kernel.
func Conv2DInt8DepthwiseNCHWc(in *QTensor, weight *QTensor, attrs ops.Conv2DAttrs, bn, regN int, epi ops.Epilogue, pf ops.ParallelFor) *tensor.Tensor {
	return Conv2DInt8DepthwiseNCHWcInto(nil, in, weight, attrs, bn, regN, epi, pf)
}

// Conv2DInt8DepthwiseNCHWcInto is Conv2DInt8DepthwiseNCHWc writing the
// rescaled float32 output into a caller-provided destination (nil dst
// allocates). The quantized padding buffer is produced per call, as with the
// dense int8 template: dynamic activation quantization is per-inference work.
func Conv2DInt8DepthwiseNCHWcInto(dst *tensor.Tensor, in *QTensor, weight *QTensor, attrs ops.Conv2DAttrs, bn, regN int, epi ops.Epilogue, pf ops.ParallelFor) *tensor.Tensor {
	if in.Layout.Kind != tensor.LayoutNCHWc || in.Layout.BlockC != bn {
		panic(fmt.Sprintf("quant: expected NCHW%dc input, got %v", bn, in.Layout))
	}
	if weight.Layout.Kind != tensor.LayoutOIHWio || weight.Layout.BlockC != 1 || weight.Layout.BlockK != bn {
		panic(fmt.Sprintf("quant: expected OIHW1i%do weight, got %v", bn, weight.Layout))
	}
	if regN <= 0 {
		panic("quant: reg_n must be positive")
	}
	n, cOuter, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	kh, kw := weight.Shape[2], weight.Shape[3]
	if weight.Shape[0] != cOuter || !attrs.Depthwise(cOuter*bn) {
		panic(fmt.Sprintf("quant: depthwise weight %v inconsistent with %d blocked channels and attrs %+v", weight.Shape, cOuter*bn, attrs))
	}
	oh, ow := attrs.OutSize(h, w)
	out := tensor.EnsureDst(dst, tensor.NCHWc(bn), n, cOuter, oh, ow, bn)
	if pf == nil {
		pf = ops.Serial
	}

	padded := padInt8NCHWc(in, attrs.PadH, attrs.PadW)
	ph, pw := padded.Shape[2], padded.Shape[3]

	// Per-channel rescale: out = acc * sIn * sW[c].
	rescale := make([]float32, cOuter*bn)
	for k := range rescale {
		sw := weight.Scale
		if weight.Scales != nil {
			sw = weight.Scales[k]
		}
		rescale[k] = in.Scale * sw
	}

	// Stack-resident accumulator tile, set up once per thread range, as in
	// the dense int8 template.
	pf(n*cOuter*oh, func(lo, hi int) {
		var accArr [ops.MaxAccTile]int32
		var acc []int32
		if regN*bn <= len(accArr) {
			acc = accArr[:regN*bn]
		} else {
			acc = make([]int32, regN*bn)
		}
		for unit := lo; unit < hi; unit++ {
			y := unit % oh
			rest := unit / oh
			co := rest % cOuter
			b := rest / cOuter
			wBase := co * kh * kw * bn
			rowBase := ((b*cOuter+co)*ph + y*attrs.StrideH) * pw * bn
			int8DWRow(padded, weight, out, acc, rescale, attrs, epi,
				b, co, y, cOuter, bn, regN, kh, kw, oh, ow, pw, wBase, rowBase)
		}
	})
	return out
}

// int8DWRow computes one (batch, channel-block, out-row) band of the
// quantized depthwise kernel. Factored out of the parallel dispatch so a
// range body reuses one int32 accumulator tile across its rows.
func int8DWRow(padded *QTensor, weight *QTensor, out *tensor.Tensor, acc []int32, rescale []float32,
	attrs ops.Conv2DAttrs, epi ops.Epilogue,
	b, co, y, cOuter, bn, regN, kh, kw, oh, ow, pw, wBase, rowBase int) {
	for owo := 0; owo < ow; owo += regN {
		tile := regN
		if ow-owo < tile {
			tile = ow - owo
		}
		for i := range acc[:tile*bn] {
			acc[i] = 0
		}
		for r := 0; r < kh; r++ {
			rowOff := rowBase + r*pw*bn
			for s := 0; s < kw; s++ {
				wVec := weight.Data[wBase+(r*kw+s)*bn : wBase+(r*kw+s)*bn+bn]
				for i := 0; i < tile; i++ {
					base := rowOff + ((owo+i)*attrs.StrideW+s)*bn
					iv := padded.Data[base : base+bn]
					a := acc[i*bn : i*bn+bn]
					for v := range wVec {
						a[v] += int32(iv[v]) * int32(wVec[v])
					}
				}
			}
		}
		outBase := (((b*cOuter+co)*oh+y)*ow + owo) * bn
		for i := 0; i < tile; i++ {
			dst := out.Data[outBase+i*bn : outBase+(i+1)*bn]
			a := acc[i*bn : (i+1)*bn]
			for v := range a {
				k := co*bn + v
				val := float32(a[v]) * rescale[k]
				if epi.Bias != nil {
					val += epi.Bias[k]
				}
				if epi.Residual != nil {
					val += epi.Residual.Data[outBase+i*bn+v]
				}
				if epi.ReLU && val < 0 {
					val = 0
				}
				dst[v] = val
			}
		}
	}
}
