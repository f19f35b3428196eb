// Package quant implements INT8 quantized inference, the second extension
// the paper lists as future work ("handling model inference in quantized
// values (e.g. INT8)", Section 6). It provides symmetric linear
// quantization, an int8 direct convolution in the same blocked NCHW[x]c
// layout as the float template (so the graph-level layout machinery applies
// unchanged), and the machine-model pricing for int8 kernels on the three
// targets.
//
// Quantization scheme: symmetric per-tensor for activations, symmetric
// per-output-channel for weights — the standard post-training scheme.
// q = clamp(round(x / scale), -127, 127); accumulation happens in int32 and
// results are rescaled back to float32 with sIn*sW[k].
package quant

import (
	"fmt"
	"math"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// QTensor is an int8 tensor with its quantization scale(s).
type QTensor struct {
	Shape  []int
	Data   []int8
	Layout tensor.Layout
	// Scale is the per-tensor scale; for per-channel weights Scales is set
	// instead and Scale is zero.
	Scale  float32
	Scales []float32
}

// NumElements returns the element count.
func (q *QTensor) NumElements() int {
	n := 1
	for _, d := range q.Shape {
		n *= d
	}
	return n
}

// maxAbs returns the maximum absolute value of a float slice.
func maxAbs(xs []float32) float32 {
	var m float32
	for _, x := range xs {
		if x < 0 {
			x = -x
		}
		if x > m {
			m = x
		}
	}
	return m
}

func quantize1(x, invScale float32) int8 {
	v := math.RoundToEven(float64(x * invScale))
	if v > 127 {
		v = 127
	}
	if v < -127 {
		v = -127
	}
	return int8(v)
}

// Quantize converts a float tensor to int8 with a symmetric per-tensor
// scale calibrated from its max-abs value.
func Quantize(t *tensor.Tensor) *QTensor {
	scale := maxAbs(t.Data) / 127
	if scale == 0 {
		scale = 1
	}
	q := &QTensor{
		Shape:  append([]int(nil), t.Shape...),
		Data:   make([]int8, len(t.Data)),
		Layout: t.Layout,
		Scale:  scale,
	}
	inv := 1 / scale
	for i, x := range t.Data {
		q.Data[i] = quantize1(x, inv)
	}
	return q
}

// QuantizeWeightsPerChannel converts an OIHW weight tensor to int8 with one
// symmetric scale per output channel, which preserves accuracy much better
// than a single tensor-wide scale.
func QuantizeWeightsPerChannel(w *tensor.Tensor) *QTensor {
	if w.Layout.Kind != tensor.LayoutOIHW {
		panic(fmt.Sprintf("quant: per-channel quantization expects OIHW, got %v", w.Layout))
	}
	o := w.Shape[0]
	per := w.NumElements() / o
	q := &QTensor{
		Shape:  append([]int(nil), w.Shape...),
		Data:   make([]int8, len(w.Data)),
		Layout: w.Layout,
		Scales: make([]float32, o),
	}
	for k := 0; k < o; k++ {
		seg := w.Data[k*per : (k+1)*per]
		scale := maxAbs(seg) / 127
		if scale == 0 {
			scale = 1
		}
		q.Scales[k] = scale
		inv := 1 / scale
		for i, x := range seg {
			q.Data[k*per+i] = quantize1(x, inv)
		}
	}
	return q
}

// Dequantize converts back to float32.
func Dequantize(q *QTensor) *tensor.Tensor {
	t := tensor.New(q.Layout, q.Shape...)
	if q.Scales == nil {
		for i, v := range q.Data {
			t.Data[i] = float32(v) * q.Scale
		}
		return t
	}
	// Per-channel (dimension 0).
	o := q.Shape[0]
	per := q.NumElements() / o
	for k := 0; k < o; k++ {
		s := q.Scales[k]
		for i := 0; i < per; i++ {
			t.Data[k*per+i] = float32(q.Data[k*per+i]) * s
		}
	}
	return t
}

// PackActivationNCHWc converts an int8 NCHW activation to NCHW[x]c, the
// same blocked layout as the float pipeline.
func PackActivationNCHWc(q *QTensor, x int) *QTensor {
	if q.Layout.Kind != tensor.LayoutNCHW {
		panic(fmt.Sprintf("quant: PackActivationNCHWc expects NCHW, got %v", q.Layout))
	}
	n, c, h, w := q.Shape[0], q.Shape[1], q.Shape[2], q.Shape[3]
	if x <= 0 || c%x != 0 {
		panic(fmt.Sprintf("quant: channels %d not divisible by %d", c, x))
	}
	co := c / x
	out := &QTensor{
		Shape:  []int{n, co, h, w, x},
		Data:   make([]int8, q.NumElements()),
		Layout: tensor.NCHWc(x),
		Scale:  q.Scale,
	}
	hw := h * w
	for b := 0; b < n; b++ {
		for cc := 0; cc < co; cc++ {
			for ci := 0; ci < x; ci++ {
				src := q.Data[(b*c+cc*x+ci)*hw:]
				dstBase := ((b*co+cc)*hw)*x + ci
				for p := 0; p < hw; p++ {
					out.Data[dstBase+p*x] = src[p]
				}
			}
		}
	}
	return out
}

// PackWeightsOIHWio converts int8 OIHW weights into the blocked
// OIHW[x]i[y]o layout of the float template.
func PackWeightsOIHWio(q *QTensor, x, y int) *QTensor {
	if q.Layout.Kind != tensor.LayoutOIHW {
		panic(fmt.Sprintf("quant: PackWeightsOIHWio expects OIHW, got %v", q.Layout))
	}
	o, i, kh, kw := q.Shape[0], q.Shape[1], q.Shape[2], q.Shape[3]
	if i%x != 0 || o%y != 0 {
		panic("quant: blocks must divide channels")
	}
	oo, io := o/y, i/x
	out := &QTensor{
		Shape:  []int{oo, io, kh, kw, x, y},
		Data:   make([]int8, q.NumElements()),
		Layout: tensor.OIHWio(x, y),
		Scale:  q.Scale,
		Scales: q.Scales,
	}
	for ocIdx := 0; ocIdx < o; ocIdx++ {
		oq, or := ocIdx/y, ocIdx%y
		for icIdx := 0; icIdx < i; icIdx++ {
			iq, ir := icIdx/x, icIdx%x
			for r := 0; r < kh; r++ {
				for s := 0; s < kw; s++ {
					v := q.Data[((ocIdx*i+icIdx)*kh+r)*kw+s]
					dst := ((((oq*io+iq)*kh+r)*kw+s)*x+ir)*y + or
					out.Data[dst] = v
				}
			}
		}
	}
	return out
}

// Conv2DInt8NCHWc is the quantized counterpart of the Algorithm-1 template:
// int8 activations and weights in the blocked layouts, int32 accumulator
// tiles (the scalar stand-in for VNNI/vpdpbusd or NEON sdot chains), with
// the output rescaled back to float32 and the same fused epilogue options.
func Conv2DInt8NCHWc(in *QTensor, weight *QTensor, attrs ops.Conv2DAttrs, icb, ocb, regN int, epi ops.Epilogue, pf ops.ParallelFor) *tensor.Tensor {
	return Conv2DInt8NCHWcInto(nil, in, weight, attrs, icb, ocb, regN, epi, pf)
}

// Conv2DInt8NCHWcInto is Conv2DInt8NCHWc writing the rescaled float32 output
// into a caller-provided destination (nil dst allocates). The quantized
// input/padding buffers are still produced per call: dynamic activation
// quantization is inherently per-inference work.
func Conv2DInt8NCHWcInto(dst *tensor.Tensor, in *QTensor, weight *QTensor, attrs ops.Conv2DAttrs, icb, ocb, regN int, epi ops.Epilogue, pf ops.ParallelFor) *tensor.Tensor {
	if in.Layout.Kind != tensor.LayoutNCHWc || in.Layout.BlockC != icb {
		panic(fmt.Sprintf("quant: expected NCHW%dc input, got %v", icb, in.Layout))
	}
	if weight.Layout.Kind != tensor.LayoutOIHWio || weight.Layout.BlockC != icb || weight.Layout.BlockK != ocb {
		panic(fmt.Sprintf("quant: expected OIHW%di%do weight, got %v", icb, ocb, weight.Layout))
	}
	if regN <= 0 {
		panic("quant: reg_n must be positive")
	}
	n, icOuter, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	ocOuter, kh, kw := weight.Shape[0], weight.Shape[2], weight.Shape[3]
	// Grouped convolution, mirroring the fp32 template: blocks tile groups
	// exactly, each output block reduces over its group's input blocks.
	groups := attrs.GroupCount()
	if icOuter%groups != 0 || ocOuter%groups != 0 {
		panic(fmt.Sprintf("quant: %d groups do not tile %d input / %d output channel blocks", groups, icOuter, ocOuter))
	}
	icOuterPerG := icOuter / groups
	ocOuterPerG := ocOuter / groups
	if icOuterPerG != weight.Shape[1] {
		panic(fmt.Sprintf("quant: per-group ic.outer %d != weight %d", icOuterPerG, weight.Shape[1]))
	}
	oh, ow := attrs.OutSize(h, w)
	out := tensor.EnsureDst(dst, tensor.NCHWc(ocb), n, ocOuter, oh, ow, ocb)
	if pf == nil {
		pf = ops.Serial
	}

	padded := padInt8NCHWc(in, attrs.PadH, attrs.PadW)
	pw := padded.Shape[3]

	// Per-output-channel rescale: out = acc * sIn * sW[k].
	rescale := make([]float32, ocOuter*ocb)
	for k := range rescale {
		sw := weight.Scale
		if weight.Scales != nil {
			sw = weight.Scales[k]
		}
		rescale[k] = in.Scale * sw
	}

	// One parallel unit per (batch, oc-block, out-row) band. The int32
	// accumulator tile lives on the stack, set up once per thread range, so
	// the hot loop performs no per-row heap allocation.
	pf(n*ocOuter*oh, func(lo, hi int) {
		var accArr [ops.MaxAccTile]int32
		var acc []int32
		if regN*ocb <= len(accArr) {
			acc = accArr[:regN*ocb]
		} else {
			acc = make([]int32, regN*ocb)
		}
		for unit := lo; unit < hi; unit++ {
			y := unit % oh
			rest := unit / oh
			co := rest % ocOuter
			b := rest / ocOuter
			wBase := co * icOuterPerG * kh * kw * icb * ocb
			icBase := (co / ocOuterPerG) * icOuterPerG
			int8ConvRow(padded, weight, out, acc, rescale, attrs, epi,
				b, co, y, icOuter, icOuterPerG, ocOuter, icb, ocb, regN, kh, kw, oh, ow, pw, wBase, icBase)
		}
	})
	return out
}

// int8ConvRow computes one (batch, oc-block, out-row) band of the quantized
// template. Factored out of the parallel dispatch so a range body reuses one
// int32 accumulator tile across its rows.
func int8ConvRow(padded *QTensor, weight *QTensor, out *tensor.Tensor, acc []int32, rescale []float32,
	attrs ops.Conv2DAttrs, epi ops.Epilogue,
	b, co, y, icOuter, icOuterPerG, ocOuter, icb, ocb, regN, kh, kw, oh, ow, pw, wBase, icBase int) {
	for owo := 0; owo < ow; owo += regN {
		tile := regN
		if ow-owo < tile {
			tile = ow - owo
		}
		for i := range acc[:tile*ocb] {
			acc[i] = 0
		}
		for ci := 0; ci < icOuterPerG; ci++ {
			inBase := ((b*icOuter+icBase+ci)*padded.Shape[2] + y*attrs.StrideH) * pw * icb
			wCI := wBase + ci*kh*kw*icb*ocb
			for r := 0; r < kh; r++ {
				rowOff := inBase + r*pw*icb
				for s := 0; s < kw; s++ {
					wRS := wCI + (r*kw+s)*icb*ocb
					for ii := 0; ii < icb; ii++ {
						wVec := weight.Data[wRS+ii*ocb : wRS+ii*ocb+ocb]
						for i := 0; i < tile; i++ {
							iv := int32(padded.Data[rowOff+((owo+i)*attrs.StrideW+s)*icb+ii])
							a := acc[i*ocb : i*ocb+ocb]
							for oi := range wVec {
								a[oi] += iv * int32(wVec[oi])
							}
						}
					}
				}
			}
		}
		outBase := (((b*ocOuter+co)*oh+y)*ow + owo) * ocb
		for i := 0; i < tile; i++ {
			dst := out.Data[outBase+i*ocb : outBase+(i+1)*ocb]
			a := acc[i*ocb : (i+1)*ocb]
			for oi := range a {
				k := co*ocb + oi
				v := float32(a[oi]) * rescale[k]
				if epi.Bias != nil {
					v += epi.Bias[k]
				}
				if epi.Residual != nil {
					v += epi.Residual.Data[outBase+i*ocb+oi]
				}
				if epi.ReLU && v < 0 {
					v = 0
				}
				dst[oi] = v
			}
		}
	}
}

func padInt8NCHWc(in *QTensor, padH, padW int) *QTensor {
	if padH == 0 && padW == 0 {
		return in
	}
	n, co, h, w, x := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3], in.Shape[4]
	ph, pw := h+2*padH, w+2*padW
	out := &QTensor{
		Shape:  []int{n, co, ph, pw, x},
		Data:   make([]int8, n*co*ph*pw*x),
		Layout: in.Layout,
		Scale:  in.Scale,
	}
	for b := 0; b < n; b++ {
		for c := 0; c < co; c++ {
			for y := 0; y < h; y++ {
				srcOff := (((b*co+c)*h + y) * w) * x
				dstOff := (((b*co+c)*ph+y+padH)*pw + padW) * x
				copy(out.Data[dstOff:dstOff+w*x], in.Data[srcOff:srcOff+w*x])
			}
		}
	}
	return out
}
