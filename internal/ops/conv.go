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
//	      for each kernel row kh:                (one rankK, k = kw·ic_bn)
//	        for each (kw, ic.inner):
//	          load weight vector  (oc_bn floats)
//	          multiply-add into acc[i] for i < reg_n
//	    store acc (+ fused epilogue)
//
// A 1x1, stride-1, unpadded convolution runs the same template over the
// flattened H·W plane, so ow.outer tiles the whole plane. The input must be
// NCHW[icb]c and the weight OIHW[icb]i[ocb]o with icb = sched ic_bn and ocb =
// sched oc_bn. unrollKer is accepted for the schedule tuple's sake and
// selects nothing: every kernel shape runs the same rank-k path.
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

	// The geometry the tile loop walks: `rows` output rows of `cols` pixels,
	// read from input rows of pitch inPitch. A 1x1, stride-1, unpadded
	// convolution is a GEMM over the flattened H·W plane — output pixel p
	// reads input pixel p — so it walks the plane as one row and the reg_n
	// tile runs across image rows instead of clamping at the end of each.
	rows, cols, inRows, inPitch := oh, ow, ph, pw
	if kh == 1 && kw == 1 && attrs.StrideH == 1 && attrs.StrideW == 1 && attrs.PadH == 0 && attrs.PadW == 0 {
		rows, cols, inRows, inPitch = 1, oh*ow, 1, ph*pw
	}
	tiles := (cols + regN - 1) / regN

	// One parallel unit per (batch, oc.outer, row, reg_n tile) — the disjoint
	// OFMAP chunks of Algorithm 1 line 8 — each thread taking one contiguous
	// run of units.
	pf(n*ocOuter*rows*tiles, func(lo, hi int) {
		// Accumulator tile: reg_n positions × oc_bn sub-channels. In the
		// AVX-512 realization each row is one ZMM register; the fixed-size
		// backing array keeps the tile on the goroutine stack, set up once
		// per thread, so the hot loop performs no per-tile heap allocation
		// (a schedule outside the searched space allocates once per range).
		var accArr [MaxAccTile]float32
		var acc []float32
		if regN*ocb <= len(accArr) {
			acc = accArr[:regN*ocb]
		} else {
			acc = make([]float32, regN*ocb)
		}
		for unit := lo; unit < hi; unit++ {
			x0 := unit % tiles * regN
			rest := unit / tiles
			y := rest % rows
			rest /= rows
			co := rest % ocOuter
			b := rest / ocOuter
			tile := min(regN, cols-x0)
			a := acc[:tile*ocb]
			clear(a)

			wCO := co * icOuterPerG * kh * kw * icb * ocb
			// First input channel block of this output block's group.
			icBase := (co / ocOuterPerG) * icOuterPerG
			for ci := 0; ci < icOuterPerG; ci++ {
				inBase := ((b*icOuter+icBase+ci)*inRows+y*attrs.StrideH)*inPitch + x0*attrs.StrideW
				wCI := wCO + ci*kh*kw*icb*ocb
				// One kernel row is one reduction of k = kw·ic_bn: its kw taps
				// × ic_bn channels are contiguous in NCHW[x]c, and so is the
				// matching weight row in OIHW[x]i[y]o, in (s, ii) order.
				for r := 0; r < kh; r++ {
					rankK(a, padded.Data[(inBase+r*inPitch)*icb:], weight.Data[wCI+r*kw*icb*ocb:],
						tile, kw*icb, attrs.StrideW*icb, ocb)
				}
			}
			storeTile(out.Data, a, epi, (((b*ocOuter+co)*rows+y)*cols+x0)*ocb, co, ocb)
		}
	})
	return out
}

// storeTile applies the fused epilogue — bias, residual, ReLU, in that order
// (Algorithm 1 lines 21-23) — to a finished accumulator tile and stores it at
// out[off:]. The residual shares the output's layout and is read at the same
// offset; co selects the output block's bias.
func storeTile(out, acc []float32, epi Epilogue, off, co, ocb int) {
	for i := 0; i < len(acc); i += ocb {
		a := acc[i : i+ocb]
		if epi.Bias != nil {
			bvec := epi.Bias[co*ocb : co*ocb+ocb]
			for oi := range a {
				a[oi] += bvec[oi]
			}
		}
		if epi.Residual != nil {
			res := epi.Residual.Data[off+i : off+i+ocb]
			for oi := range a {
				a[oi] += res[oi]
			}
		}
		if epi.ReLU {
			for oi := range a {
				a[oi] = relu32(a[oi])
			}
		}
	}
	copy(out[off:off+len(acc)], acc)
}
