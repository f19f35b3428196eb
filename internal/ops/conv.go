package ops

import (
	"fmt"

	"repro/internal/tensor"
)

// Conv2DNCHW is the reference direct convolution in the default NCHW layout
// with OIHW weights. It is used as the ground truth for every other
// convolution kernel and as the un-optimized baseline of Table 3 row 1.
func Conv2DNCHW(in, weight *tensor.Tensor, attrs Conv2DAttrs, epi Epilogue, pf ParallelFor) *tensor.Tensor {
	return Conv2DNCHWInto(nil, in, weight, attrs, epi, pf)
}

// Conv2DNCHWInto is Conv2DNCHW writing into a caller-provided destination
// (nil dst allocates).
func Conv2DNCHWInto(dst *tensor.Tensor, in, weight *tensor.Tensor, attrs Conv2DAttrs, epi Epilogue, pf ParallelFor) *tensor.Tensor {
	if in.Layout.Kind != tensor.LayoutNCHW {
		panic(fmt.Sprintf("ops: Conv2DNCHW expects NCHW input, got %v", in.Layout))
	}
	if weight.Layout.Kind != tensor.LayoutOIHW {
		panic(fmt.Sprintf("ops: Conv2DNCHW expects OIHW weight, got %v", weight.Layout))
	}
	n, c, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	oc, wc, kh, kw := weight.Shape[0], weight.Shape[1], weight.Shape[2], weight.Shape[3]
	groups := attrs.GroupCount()
	if c%groups != 0 || attrs.OutC%groups != 0 {
		panic(fmt.Sprintf("ops: groups %d must divide channels %d and %d", groups, c, attrs.OutC))
	}
	icPerG := c / groups
	if wc != icPerG || oc != attrs.OutC || kh != attrs.KH || kw != attrs.KW {
		panic(fmt.Sprintf("ops: weight shape %v inconsistent with attrs %+v and input channels %d", weight.Shape, attrs, c))
	}
	ocPerG := oc / groups
	oh, ow := attrs.OutSize(h, w)
	out := tensor.EnsureDst(dst, tensor.NCHW(), n, oc, oh, ow)
	if pf == nil {
		pf = Serial
	}

	pf(n*oc, func(lo, hi int) {
		for unit := lo; unit < hi; unit++ {
			b := unit / oc
			k := unit % oc
			// The group's input-channel window: dense convolution reduces
			// over every channel (one group), grouped convolution over its
			// slice.
			icBase := (k / ocPerG) * icPerG
			var bias float32
			if epi.Bias != nil {
				bias = epi.Bias[k]
			}
			for y := 0; y < oh; y++ {
				for x := 0; x < ow; x++ {
					acc := bias
					for ci := 0; ci < icPerG; ci++ {
						for r := 0; r < kh; r++ {
							iy := y*attrs.StrideH + r - attrs.PadH
							if iy < 0 || iy >= h {
								continue
							}
							inRow := in.Data[((b*c+icBase+ci)*h+iy)*w:]
							wRow := weight.Data[((k*icPerG+ci)*kh+r)*kw:]
							for s := 0; s < kw; s++ {
								ix := x*attrs.StrideW + s - attrs.PadW
								if ix < 0 || ix >= w {
									continue
								}
								acc += inRow[ix] * wRow[s]
							}
						}
					}
					idx := ((b*oc+k)*oh+y)*ow + x
					if epi.Residual != nil {
						acc += epi.Residual.Data[idx]
					}
					if epi.ReLU {
						acc = relu32(acc)
					}
					out.Data[idx] = acc
				}
			}
		}
	})
	return out
}

// Conv2DNHWC is the channels-last direct convolution (TensorFlow's default
// layout). Weights remain OIHW.
func Conv2DNHWC(in, weight *tensor.Tensor, attrs Conv2DAttrs, epi Epilogue, pf ParallelFor) *tensor.Tensor {
	return Conv2DNHWCInto(nil, in, weight, attrs, epi, pf)
}

// Conv2DNHWCInto is Conv2DNHWC writing into a caller-provided destination
// (nil dst allocates).
func Conv2DNHWCInto(dst *tensor.Tensor, in, weight *tensor.Tensor, attrs Conv2DAttrs, epi Epilogue, pf ParallelFor) *tensor.Tensor {
	if in.Layout.Kind != tensor.LayoutNHWC {
		panic(fmt.Sprintf("ops: Conv2DNHWC expects NHWC input, got %v", in.Layout))
	}
	n, h, w, c := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	oc, kh, kw := weight.Shape[0], weight.Shape[2], weight.Shape[3]
	groups := attrs.GroupCount()
	if c%groups != 0 || attrs.OutC%groups != 0 {
		panic(fmt.Sprintf("ops: groups %d must divide channels %d and %d", groups, c, attrs.OutC))
	}
	icPerG := c / groups
	if weight.Shape[1] != icPerG || oc != attrs.OutC {
		panic(fmt.Sprintf("ops: weight shape %v inconsistent with attrs %+v and input channels %d", weight.Shape, attrs, c))
	}
	ocPerG := oc / groups
	oh, ow := attrs.OutSize(h, w)
	out := tensor.EnsureDst(dst, tensor.NHWC(), n, oh, ow, oc)
	if pf == nil {
		pf = Serial
	}

	pf(n*oh, func(lo, hi int) {
		for unit := lo; unit < hi; unit++ {
			b := unit / oh
			y := unit % oh
			for x := 0; x < ow; x++ {
				outPix := out.Data[((b*oh+y)*ow+x)*oc:]
				for k := 0; k < oc; k++ {
					icBase := (k / ocPerG) * icPerG
					var acc float32
					if epi.Bias != nil {
						acc = epi.Bias[k]
					}
					for r := 0; r < kh; r++ {
						iy := y*attrs.StrideH + r - attrs.PadH
						if iy < 0 || iy >= h {
							continue
						}
						for s := 0; s < kw; s++ {
							ix := x*attrs.StrideW + s - attrs.PadW
							if ix < 0 || ix >= w {
								continue
							}
							inPix := in.Data[((b*h+iy)*w+ix)*c+icBase:]
							wRow := weight.Data[((k*icPerG)*kh+r)*kw+s:]
							// Weight stride between consecutive in-channels at a
							// fixed (r,s) is kh*kw.
							for ci := 0; ci < icPerG; ci++ {
								acc += inPix[ci] * wRow[ci*kh*kw]
							}
						}
					}
					idx := ((b*oh+y)*ow+x)*oc + k
					if epi.Residual != nil {
						acc += epi.Residual.Data[idx]
					}
					if epi.ReLU {
						acc = relu32(acc)
					}
					outPix[k] = acc
				}
			}
		}
	})
	return out
}

// padNCHWc returns the input with explicit zero padding applied on H and W,
// or the input itself when no padding is needed. scratch, if non-nil, is the
// reused padded buffer: its border was zeroed when it was first allocated and
// interior writes never touch it, so only the interior rows are re-copied.
func padNCHWc(in *tensor.Tensor, padH, padW int, scratch *tensor.Tensor) *tensor.Tensor {
	if padH == 0 && padW == 0 {
		return in
	}
	n, co, h, w, x := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3], in.Shape[4]
	ph, pw := h+2*padH, w+2*padW
	out := tensor.EnsureDst(scratch, in.Layout, n, co, ph, pw, x)
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

// Conv2DNCHWc is the paper's Algorithm 1: the direct convolution template in
// the blocked NCHW[x]c layout with OIHW[x]i[y]o weights. The schedule's
// register blocking is realized with a reg_n × oc_bn accumulator tile that
// stays in registers/L1 across the full reduction, exactly mirroring the
// ZMM-register allocation of Figure 1:
//
//	for each disjoint chunk of OFMAP:            (parallel)
//	  for ow.outer:
//	    init acc[reg_n][oc_bn]
//	    for ic.outer:
//	      for each kernel entry (kh,kw):         (optionally unrolled)
//	        for ic.inner:
//	          load weight vector  (oc_bn floats)
//	          fmadd into acc[i] for i < reg_n
//	    store acc (+ fused epilogue)
//
// The input must be NCHW[icb]c and the weight OIHW[icb]i[ocb]o with icb =
// sched ic_bn and ocb = sched oc_bn.
func Conv2DNCHWc(in, weight *tensor.Tensor, attrs Conv2DAttrs, icb, ocb, regN int, unrollKer bool, epi Epilogue, pf ParallelFor) *tensor.Tensor {
	return Conv2DNCHWcInto(nil, nil, in, weight, attrs, icb, ocb, regN, unrollKer, epi, pf)
}

// PaddedShapeNCHWc returns the buffer shape Conv2DNCHWcInto needs for its
// padding scratch given the blocked input shape, or nil when the convolution
// needs no explicit padding. Sessions use it to size arenas once.
func PaddedShapeNCHWc(inShape []int, attrs Conv2DAttrs) []int {
	if attrs.PadH == 0 && attrs.PadW == 0 {
		return nil
	}
	return []int{inShape[0], inShape[1], inShape[2] + 2*attrs.PadH, inShape[3] + 2*attrs.PadW, inShape[4]}
}

// Conv2DNCHWcInto is Conv2DNCHWc writing into caller-provided buffers: dst
// receives the output and padScratch (sized per PaddedShapeNCHWc, zero-filled
// at allocation) holds the explicitly padded input. Either may be nil, in
// which case it is allocated.
func Conv2DNCHWcInto(dst, padScratch *tensor.Tensor, in, weight *tensor.Tensor, attrs Conv2DAttrs, icb, ocb, regN int, unrollKer bool, epi Epilogue, pf ParallelFor) *tensor.Tensor {
	if in.Layout.Kind != tensor.LayoutNCHWc || in.Layout.BlockC != icb {
		panic(fmt.Sprintf("ops: Conv2DNCHWc expects NCHW%dc input, got %v", icb, in.Layout))
	}
	if weight.Layout.Kind != tensor.LayoutOIHWio || weight.Layout.BlockC != icb || weight.Layout.BlockK != ocb {
		panic(fmt.Sprintf("ops: Conv2DNCHWc expects OIHW%di%do weight, got %v", icb, ocb, weight.Layout))
	}
	if regN <= 0 {
		panic("ops: reg_n must be positive")
	}
	n, icOuter, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	ocOuter, kh, kw := weight.Shape[0], weight.Shape[2], weight.Shape[3]
	// Grouped convolution: the channel blocks must tile the groups exactly
	// (ic_bn divides in_channels/groups, oc_bn divides out_channels/groups),
	// so each output block reduces over a contiguous run of input blocks and
	// the dense template below applies per group unchanged. Dense convolution
	// is the one-group case at zero cost.
	groups := attrs.GroupCount()
	if icOuter%groups != 0 || ocOuter%groups != 0 {
		panic(fmt.Sprintf("ops: %d groups do not tile %d input / %d output channel blocks", groups, icOuter, ocOuter))
	}
	icOuterPerG := icOuter / groups
	ocOuterPerG := ocOuter / groups
	if icOuterPerG != weight.Shape[1] {
		panic(fmt.Sprintf("ops: per-group ic.outer %d != weight %d", icOuterPerG, weight.Shape[1]))
	}
	oh, ow := attrs.OutSize(h, w)
	out := tensor.EnsureDst(dst, tensor.NCHWc(ocb), n, ocOuter, oh, ow, ocb)
	if pf == nil {
		pf = Serial
	}

	padded := padNCHWc(in, attrs.PadH, attrs.PadW, padScratch)
	ph, pw := padded.Shape[2], padded.Shape[3]
	// The kernel indexes the padded buffer without per-access bounds checks,
	// so a schedule whose geometry does not cover the output must fail loudly
	// here rather than read garbage (or panic mid-parallel-region).
	if need := (oh-1)*attrs.StrideH + kh; ph < need {
		panic(fmt.Sprintf("ops: padded input height %d cannot cover output height %d (need %d rows for stride %d, kernel %d)",
			ph, oh, need, attrs.StrideH, kh))
	}
	if need := (ow-1)*attrs.StrideW + kw; pw < need {
		panic(fmt.Sprintf("ops: padded input width %d cannot cover output width %d (need %d cols for stride %d, kernel %d)",
			pw, ow, need, attrs.StrideW, kw))
	}

	// One parallel unit per (batch, oc.outer, oh) row — the disjoint OFMAP
	// chunks of Algorithm 1 line 8 — each thread taking one contiguous run
	// of rows.
	pf(n*ocOuter*oh, func(lo, hi int) {
		// Accumulator tile: reg_n positions × oc_bn sub-channels. In the
		// AVX-512 realization each row is one ZMM register; the fixed-size
		// backing array keeps the tile on the goroutine stack, set up once
		// per thread, so the hot loop performs no per-row heap allocation
		// (a schedule outside the searched space allocates once per range).
		var accArr [MaxAccTile]float32
		var acc []float32
		if regN*ocb <= len(accArr) {
			acc = accArr[:regN*ocb]
		} else {
			acc = make([]float32, regN*ocb)
		}
		for unit := lo; unit < hi; unit++ {
			y := unit % oh
			rest := unit / oh
			co := rest % ocOuter
			b := rest / ocOuter

			wBase := co * icOuterPerG * kh * kw * icb * ocb
			// First input channel block of this output block's group.
			icBase := (co / ocOuterPerG) * icOuterPerG

			runConvRow(padded, weight, out, acc, attrs, epi,
				b, co, y, icOuter, icOuterPerG, ocOuter,
				icb, ocb, regN, unrollKer, kh, kw, oh, ow, ph, pw,
				wBase, icBase)
		}
	})
	return out
}

// runConvRow computes one (batch, oc.outer, oh) output row of the blocked
// direct template — the body of Algorithm 1's parallel loop, factored out so
// the range body above reuses one accumulator tile across all of its rows.
func runConvRow(padded, weight, out *tensor.Tensor, acc []float32, attrs Conv2DAttrs, epi Epilogue,
	b, co, y, icOuter, icOuterPerG, ocOuter, icb, ocb, regN int, unrollKer bool,
	kh, kw, oh, ow, ph, pw, wBase, icBase int) {
	for owo := 0; owo < ow; owo += regN {
		tile := regN
		if ow-owo < tile {
			tile = ow - owo
		}
		for i := range acc[:tile*ocb] {
			acc[i] = 0
		}

		for ci := 0; ci < icOuterPerG; ci++ {
			inBase := ((b*icOuter+icBase+ci)*ph + y*attrs.StrideH) * pw * icb
			wCI := wBase + ci*kh*kw*icb*ocb
			if unrollKer && kh == 3 && kw == 3 {
				conv3x3Tile(padded.Data, weight.Data, acc, inBase, wCI, pw, icb, ocb, tile, owo, attrs.StrideW)
			} else if unrollKer && kh == 1 && kw == 1 {
				conv1x1Tile(padded.Data, weight.Data, acc, inBase, wCI, pw, icb, ocb, tile, owo, attrs.StrideW)
			} else {
				for r := 0; r < kh; r++ {
					rowOff := inBase + r*pw*icb
					for s := 0; s < kw; s++ {
						wRS := wCI + (r*kw+s)*icb*ocb
						for ii := 0; ii < icb; ii++ {
							wVec := weight.Data[wRS+ii*ocb : wRS+ii*ocb+ocb]
							for i := 0; i < tile; i++ {
								iv := padded.Data[rowOff+((owo+i)*attrs.StrideW+s)*icb+ii]
								axpy(acc[i*ocb:i*ocb+ocb], wVec, iv, ocb)
							}
						}
					}
				}
			}
		}

		// Epilogue + store (Algorithm 1 lines 21-23, with fusion).
		outBase := (((b*ocOuter+co)*oh+y)*ow + owo) * ocb
		for i := 0; i < tile; i++ {
			dst := out.Data[outBase+i*ocb : outBase+(i+1)*ocb]
			a := acc[i*ocb : (i+1)*ocb]
			if epi.Bias != nil {
				bvec := epi.Bias[co*ocb : co*ocb+ocb]
				for oi := range a {
					a[oi] += bvec[oi]
				}
			}
			if epi.Residual != nil {
				res := epi.Residual.Data[outBase+i*ocb : outBase+(i+1)*ocb]
				for oi := range a {
					a[oi] += res[oi]
				}
			}
			if epi.ReLU {
				for oi := range a {
					a[oi] = relu32(a[oi])
				}
			}
			copy(dst, a)
		}
	}
}

// axpy computes a[:ocb] += x * w[:ocb], the direct template's innermost FMA.
// The vector-width block sizes real schedules pick (the oc_bn values that
// fill 4/8/16 fp32 lanes) are specialized with fixed-size array pointers:
// the conversion performs one length check, after which the constant-bound
// loop compiles without per-element bounds checks.
func axpy(a, w []float32, x float32, ocb int) {
	switch ocb {
	case 4:
		ap, wp := (*[4]float32)(a), (*[4]float32)(w)
		for oi := 0; oi < 4; oi++ {
			ap[oi] += x * wp[oi]
		}
	case 8:
		ap, wp := (*[8]float32)(a), (*[8]float32)(w)
		for oi := 0; oi < 8; oi++ {
			ap[oi] += x * wp[oi]
		}
	case 16:
		ap, wp := (*[16]float32)(a), (*[16]float32)(w)
		for oi := 0; oi < 16; oi++ {
			ap[oi] += x * wp[oi]
		}
	default:
		for oi := range w {
			a[oi] += x * w[oi]
		}
	}
}

// conv3x3Tile is the unroll_ker=true specialization for 3x3 kernels: the
// (kh,kw) loop is fully unrolled so the bounds are compile-time constants,
// and the vector-width oc_bn values dispatch to bounds-check-free bodies.
func conv3x3Tile(in, wt, acc []float32, inBase, wCI, pw, icb, ocb, tile, owo, strideW int) {
	switch ocb {
	case 4:
		conv3x3Tile4(in, wt, acc, inBase, wCI, pw, icb, tile, owo, strideW)
	case 8:
		conv3x3Tile8(in, wt, acc, inBase, wCI, pw, icb, tile, owo, strideW)
	case 16:
		conv3x3Tile16(in, wt, acc, inBase, wCI, pw, icb, tile, owo, strideW)
	default:
		for r := 0; r < 3; r++ {
			rowOff := inBase + r*pw*icb
			wR := wCI + r*3*icb*ocb
			for ii := 0; ii < icb; ii++ {
				w0 := wt[wR+ii*ocb : wR+ii*ocb+ocb]
				w1 := wt[wR+(icb+ii)*ocb : wR+(icb+ii)*ocb+ocb]
				w2 := wt[wR+(2*icb+ii)*ocb : wR+(2*icb+ii)*ocb+ocb]
				for i := 0; i < tile; i++ {
					base := rowOff + (owo+i)*strideW*icb + ii
					iv0 := in[base]
					iv1 := in[base+icb]
					iv2 := in[base+2*icb]
					a := acc[i*ocb : i*ocb+ocb]
					for oi := range a {
						a[oi] += iv0*w0[oi] + iv1*w1[oi] + iv2*w2[oi]
					}
				}
			}
		}
	}
}

// conv1x1Tile is the unroll_ker=true specialization for 1x1 kernels.
func conv1x1Tile(in, wt, acc []float32, inBase, wCI, pw, icb, ocb, tile, owo, strideW int) {
	_ = pw
	switch ocb {
	case 4:
		conv1x1Tile4(in, wt, acc, inBase, wCI, icb, tile, owo, strideW)
	case 8:
		conv1x1Tile8(in, wt, acc, inBase, wCI, icb, tile, owo, strideW)
	case 16:
		conv1x1Tile16(in, wt, acc, inBase, wCI, icb, tile, owo, strideW)
	default:
		for ii := 0; ii < icb; ii++ {
			wv := wt[wCI+ii*ocb : wCI+ii*ocb+ocb]
			for i := 0; i < tile; i++ {
				iv := in[inBase+(owo+i)*strideW*icb+ii]
				a := acc[i*ocb : i*ocb+ocb]
				for oi := range a {
					a[oi] += iv * wv[oi]
				}
			}
		}
	}
}

// The oc_bn-specialized tile bodies. Each is the generic loop with ocb fixed
// at a compile-time constant and every slice re-expressed as a fixed-size
// array pointer, which eliminates the bounds check on each of the three
// multiply-accumulates in the hottest loop in the repository.

func conv3x3Tile4(in, wt, acc []float32, inBase, wCI, pw, icb, tile, owo, strideW int) {
	const ocb = 4
	for r := 0; r < 3; r++ {
		rowOff := inBase + r*pw*icb
		wR := wCI + r*3*icb*ocb
		for ii := 0; ii < icb; ii++ {
			w0 := (*[ocb]float32)(wt[wR+ii*ocb:])
			w1 := (*[ocb]float32)(wt[wR+(icb+ii)*ocb:])
			w2 := (*[ocb]float32)(wt[wR+(2*icb+ii)*ocb:])
			for i := 0; i < tile; i++ {
				base := rowOff + (owo+i)*strideW*icb + ii
				iv0, iv1, iv2 := in[base], in[base+icb], in[base+2*icb]
				a := (*[ocb]float32)(acc[i*ocb:])
				for oi := 0; oi < ocb; oi++ {
					a[oi] += iv0*w0[oi] + iv1*w1[oi] + iv2*w2[oi]
				}
			}
		}
	}
}

func conv3x3Tile8(in, wt, acc []float32, inBase, wCI, pw, icb, tile, owo, strideW int) {
	const ocb = 8
	for r := 0; r < 3; r++ {
		rowOff := inBase + r*pw*icb
		wR := wCI + r*3*icb*ocb
		for ii := 0; ii < icb; ii++ {
			w0 := (*[ocb]float32)(wt[wR+ii*ocb:])
			w1 := (*[ocb]float32)(wt[wR+(icb+ii)*ocb:])
			w2 := (*[ocb]float32)(wt[wR+(2*icb+ii)*ocb:])
			for i := 0; i < tile; i++ {
				base := rowOff + (owo+i)*strideW*icb + ii
				iv0, iv1, iv2 := in[base], in[base+icb], in[base+2*icb]
				a := (*[ocb]float32)(acc[i*ocb:])
				for oi := 0; oi < ocb; oi++ {
					a[oi] += iv0*w0[oi] + iv1*w1[oi] + iv2*w2[oi]
				}
			}
		}
	}
}

func conv3x3Tile16(in, wt, acc []float32, inBase, wCI, pw, icb, tile, owo, strideW int) {
	const ocb = 16
	for r := 0; r < 3; r++ {
		rowOff := inBase + r*pw*icb
		wR := wCI + r*3*icb*ocb
		for ii := 0; ii < icb; ii++ {
			w0 := (*[ocb]float32)(wt[wR+ii*ocb:])
			w1 := (*[ocb]float32)(wt[wR+(icb+ii)*ocb:])
			w2 := (*[ocb]float32)(wt[wR+(2*icb+ii)*ocb:])
			for i := 0; i < tile; i++ {
				base := rowOff + (owo+i)*strideW*icb + ii
				iv0, iv1, iv2 := in[base], in[base+icb], in[base+2*icb]
				a := (*[ocb]float32)(acc[i*ocb:])
				for oi := 0; oi < ocb; oi++ {
					a[oi] += iv0*w0[oi] + iv1*w1[oi] + iv2*w2[oi]
				}
			}
		}
	}
}

func conv1x1Tile4(in, wt, acc []float32, inBase, wCI, icb, tile, owo, strideW int) {
	const ocb = 4
	for ii := 0; ii < icb; ii++ {
		wv := (*[ocb]float32)(wt[wCI+ii*ocb:])
		for i := 0; i < tile; i++ {
			iv := in[inBase+(owo+i)*strideW*icb+ii]
			a := (*[ocb]float32)(acc[i*ocb:])
			for oi := 0; oi < ocb; oi++ {
				a[oi] += iv * wv[oi]
			}
		}
	}
}

func conv1x1Tile8(in, wt, acc []float32, inBase, wCI, icb, tile, owo, strideW int) {
	const ocb = 8
	for ii := 0; ii < icb; ii++ {
		wv := (*[ocb]float32)(wt[wCI+ii*ocb:])
		for i := 0; i < tile; i++ {
			iv := in[inBase+(owo+i)*strideW*icb+ii]
			a := (*[ocb]float32)(acc[i*ocb:])
			for oi := 0; oi < ocb; oi++ {
				a[oi] += iv * wv[oi]
			}
		}
	}
}

func conv1x1Tile16(in, wt, acc []float32, inBase, wCI, icb, tile, owo, strideW int) {
	const ocb = 16
	for ii := 0; ii < icb; ii++ {
		wv := (*[ocb]float32)(wt[wCI+ii*ocb:])
		for i := 0; i < tile; i++ {
			iv := in[inBase+(owo+i)*strideW*icb+ii]
			a := (*[ocb]float32)(acc[i*ocb:])
			for oi := 0; oi < ocb; oi++ {
				a[oi] += iv * wv[oi]
			}
		}
	}
}
