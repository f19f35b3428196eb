package ops

import (
	"fmt"

	"repro/internal/tensor"
)

// Winograd F(2x2, 3x3) convolution — the paper lists "extending to other
// convolution computation algorithms such as Winograd" as future work
// (Section 6) and notes NeoCPU is compatible with such kernels (Section 1).
// This implementation slots in beside the direct template: same OIHW weights
// (transformed once at compile time, like the layout pre-packing), same
// epilogue fusion, NCHW activations, 3x3 stride-1 convolutions only.
//
// Per 2x2 output tile the algorithm computes
//
//	Y = Aᵀ [ (G g Gᵀ) ⊙ (Bᵀ d B) ] A
//
// with the canonical F(2,3) matrices, replacing 36 multiplies by 16 per
// channel pair (a 2.25x multiply reduction).

// WinogradWeightTransform computes U = G g Gᵀ for every (out, in) channel
// pair of a 3x3 OIHW weight. The result is stored as a flat tensor of shape
// (16, O, I): component-major so the inner accumulation over input channels
// is contiguous.
func WinogradWeightTransform(weight *tensor.Tensor) *tensor.Tensor {
	if weight.Layout.Kind != tensor.LayoutOIHW {
		panic(fmt.Sprintf("ops: WinogradWeightTransform expects OIHW, got %v", weight.Layout))
	}
	o, i, kh, kw := weight.Shape[0], weight.Shape[1], weight.Shape[2], weight.Shape[3]
	if kh != 3 || kw != 3 {
		panic(fmt.Sprintf("ops: Winograd F(2,3) requires 3x3 kernels, got %dx%d", kh, kw))
	}
	out := tensor.New(tensor.Flat(), 16, o, i)
	for oc := 0; oc < o; oc++ {
		for ic := 0; ic < i; ic++ {
			g := weight.Data[(oc*i+ic)*9 : (oc*i+ic)*9+9]
			// t = G g  (4x3), with G = [1 0 0; ½ ½ ½; ½ -½ ½; 0 0 1].
			var t [4][3]float32
			for c := 0; c < 3; c++ {
				g0, g1, g2 := g[c], g[3+c], g[6+c]
				t[0][c] = g0
				t[1][c] = 0.5 * (g0 + g1 + g2)
				t[2][c] = 0.5 * (g0 - g1 + g2)
				t[3][c] = g2
			}
			// u = t Gᵀ (4x4).
			for r := 0; r < 4; r++ {
				u0 := t[r][0]
				u1 := 0.5 * (t[r][0] + t[r][1] + t[r][2])
				u2 := 0.5 * (t[r][0] - t[r][1] + t[r][2])
				u3 := t[r][2]
				for c, v := range [4]float32{u0, u1, u2, u3} {
					out.Data[((r*4+c)*o+oc)*i+ic] = v
				}
			}
		}
	}
	return out
}

// WinogradWeightTransformNCHWc computes U = G g Gᵀ for a 3x3 OIHW weight and
// packs it for the blocked kernel as a flat tensor of shape
// (16, O/ocb, I/icb, icb, ocb): transform-component major, then the output
// block, then contiguous input channels with the ocb sub-channels innermost —
// so the transform-domain reduction's inner fmadd runs over a dense ocb-wide
// vector, exactly like the direct template's weight slab. Like PackWeights,
// this runs once at compile time.
func WinogradWeightTransformNCHWc(weight *tensor.Tensor, icb, ocb int) *tensor.Tensor {
	u := WinogradWeightTransform(weight) // (16, O, I)
	o, i := u.Shape[1], u.Shape[2]
	if icb <= 0 || i%icb != 0 {
		panic(fmt.Sprintf("ops: in-channels %d not divisible by block %d", i, icb))
	}
	if ocb <= 0 || o%ocb != 0 {
		panic(fmt.Sprintf("ops: out-channels %d not divisible by block %d", o, ocb))
	}
	oOuter, iOuter := o/ocb, i/icb
	out := tensor.New(tensor.Flat(), 16, oOuter, iOuter, icb, ocb)
	for xi := 0; xi < 16; xi++ {
		for oc := 0; oc < o; oc++ {
			for ic := 0; ic < i; ic++ {
				v := u.Data[(xi*o+oc)*i+ic]
				dst := ((((xi*oOuter+oc/ocb)*iOuter+ic/icb)*icb + ic%icb) * ocb) + oc%ocb
				out.Data[dst] = v
			}
		}
	}
	return out
}

// WinogradScratchShape returns the buffer shape Conv2DWinogradNCHWcInto needs
// for its per-tile-row transform scratch (the V tiles of every input channel),
// given the blocked input's physical NCHW[x]c shape. One row per parallel
// unit, and a range's tile blocks use only the rows of its own units, so
// concurrent ranges never share a slice; Sessions use it to size arenas once
// and keep steady-state execution allocation-free.
func WinogradScratchShape(inShape []int, attrs Conv2DAttrs) []int {
	n, icOuter, h, w, icb := inShape[0], inShape[1], inShape[2], inShape[3], inShape[4]
	oh, _ := attrs.OutSize(h, w)
	tilesH := (oh + 1) / 2
	return []int{n * tilesH, 16 * icOuter * icb}
}

// Conv2DWinogradNCHWc is the Winograd F(2x2, 3x3) convolution in the blocked
// NCHW[x]c layout: it consumes NCHW[icb]c activations and produces
// NCHW[ocb]c, presenting exactly the direct template's layout interface so
// graph-level transform elimination applies unchanged. Weights must be
// pre-transformed by WinogradWeightTransformNCHWc.
func Conv2DWinogradNCHWc(in, transformed *tensor.Tensor, attrs Conv2DAttrs, icb, ocb int, epi Epilogue, pf ParallelFor) *tensor.Tensor {
	return Conv2DWinogradNCHWcInto(nil, nil, in, transformed, attrs, icb, ocb, epi, pf)
}

// Conv2DWinogradNCHWcInto is Conv2DWinogradNCHWc writing into caller-provided
// buffers: dst receives the blocked output and scratch (sized per
// WinogradScratchShape) holds the V tiles of a tile block. Either may be nil, in
// which case it is allocated. Padding is applied implicitly by the data
// transform's border handling — no explicit padding scratch is needed.
func Conv2DWinogradNCHWcInto(dst, scratch *tensor.Tensor, in, transformed *tensor.Tensor, attrs Conv2DAttrs, icb, ocb int, epi Epilogue, pf ParallelFor) *tensor.Tensor {
	if in.Layout.Kind != tensor.LayoutNCHWc || in.Layout.BlockC != icb {
		panic(fmt.Sprintf("ops: Conv2DWinogradNCHWc expects NCHW%dc input, got %v", icb, in.Layout))
	}
	if attrs.KH != 3 || attrs.KW != 3 || attrs.StrideH != 1 || attrs.StrideW != 1 {
		panic("ops: Conv2DWinogradNCHWc supports 3x3 stride-1 convolutions only")
	}
	n, icOuter, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	c := icOuter * icb
	ocOuter := transformed.Shape[1]
	if transformed.Shape[0] != 16 || transformed.Shape[2] != icOuter ||
		transformed.Shape[3] != icb || transformed.Shape[4] != ocb {
		panic(fmt.Sprintf("ops: transformed weight shape %v inconsistent with NCHW%dc input (%d blocks) and oc_bn %d",
			transformed.Shape, icb, icOuter, ocb))
	}
	if attrs.OutC != ocOuter*ocb {
		panic(fmt.Sprintf("ops: transformed weight covers %d output channels, attrs want %d", ocOuter*ocb, attrs.OutC))
	}
	oh, ow := attrs.OutSize(h, w)
	out := tensor.EnsureDst(dst, tensor.NCHWc(ocb), n, ocOuter, oh, ow, ocb)
	if pf == nil {
		pf = Serial
	}

	tilesH := (oh + 1) / 2
	tilesW := (ow + 1) / 2
	vscr := tensor.EnsureDst(scratch, tensor.Flat(), n*tilesH, 16*c)
	uStride := icOuter * icb * ocb // one (component, oc-block) slab

	// One parallel unit per (batch, tile row); a range owns the V-scratch rows
	// of its units. It walks its tiles in row-major order, across tile-row and
	// batch boundaries, in blocks of up to winogradBlock tiles: the block's
	// data transforms fill V, then one rankK per (component, output block)
	// multiplies every tile of the block by the same U slab, so each weight
	// vector is loaded once per block rather than once per tile. A block of tb
	// tiles needs 16·tb·C floats of V, which the range's tb ≤ hi-lo rows hold.
	pf(n*tilesH, func(lo, hi int) {
		tb := min(winogradBlock, hi-lo)
		v := vscr.Data[lo*16*c : (lo+tb)*16*c]
		// Component accumulators of one output block for the whole tile
		// block, on the goroutine stack for every oc_bn the schedule space
		// emits.
		var mArr [16 * winogradBlock * 64]float32
		var m []float32
		if 16*tb*ocb <= len(mArr) {
			m = mArr[:16*tb*ocb]
		} else {
			m = make([]float32, 16*tb*ocb)
		}
		for t0, tEnd := lo*tilesW, hi*tilesW; t0 < tEnd; t0 += tb {
			nb := min(tb, tEnd-t0)
			for j := 0; j < nb; j++ {
				b, oy, ox := winogradTileOrigin(t0+j, tilesH, tilesW)
				winogradInputTile(in, v, attrs, b, oy, ox, j, nb, icOuter, icb, c, h, w)
			}
			mb := m[:16*nb*ocb]
			for co := 0; co < ocOuter; co++ {
				// M[xi][j][:] = Σ_ch U[xi][co][ch][:] * V[xi][j][ch]: the
				// transform-domain product of the block's nb tiles, reduced
				// over all input channels with the ocb sub-channels vectorized
				// like the direct template.
				clear(mb)
				for xi := 0; xi < 16; xi++ {
					rankK(mb[xi*nb*ocb:], v[xi*nb*c:], transformed.Data[(xi*ocOuter+co)*uStride:], nb, c, c, ocb)
				}
				for j := 0; j < nb; j++ {
					b, oy, ox := winogradTileOrigin(t0+j, tilesH, tilesW)
					winogradOutputTile(out, mb, epi, b, co, oy, ox, j, nb, ocOuter, ocb, oh, ow)
				}
			}
		}
	})
	return out
}

// winogradBlock is the number of 2x2 output tiles whose transform-domain
// products share one pass over the transformed weights: the rank-k
// microkernel's row block.
const winogradBlock = 4

// winogradTileOrigin returns the batch index and the top-left output pixel
// of tile t, counted row-major over (batch, tile row, tile column).
func winogradTileOrigin(t, tilesH, tilesW int) (b, oy, ox int) {
	row := t / tilesW
	return row / tilesH, row % tilesH * 2, t % tilesW * 2
}

// winogradInputTile computes V = Bᵀ d B for every input channel of the tile
// at output pixel (oy, ox) of image b, read from the blocked layout, into
// slot j of a block of nb tiles: v[(xi·nb + j)·c + ch].
func winogradInputTile(in *tensor.Tensor, v []float32, attrs Conv2DAttrs, b, oy, ox, j, nb, icOuter, icb, c, h, w int) {
	iy0 := oy - attrs.PadH
	ix0 := ox - attrs.PadW
	for coi := 0; coi < icOuter; coi++ {
		rowBase := (b*icOuter + coi) * h
		for ii := 0; ii < icb; ii++ {
			ch := coi*icb + ii
			var d [4][4]float32
			for r := 0; r < 4; r++ {
				iy := iy0 + r
				if iy < 0 || iy >= h {
					continue
				}
				row := in.Data[(rowBase+iy)*w*icb:]
				for cc := 0; cc < 4; cc++ {
					ix := ix0 + cc
					if ix >= 0 && ix < w {
						d[r][cc] = row[ix*icb+ii]
					}
				}
			}
			// t = Bᵀ d, with Bᵀ = [1 0 -1 0; 0 1 1 0; 0 -1 1 0; 0 1 0 -1].
			var t [4][4]float32
			for cc := 0; cc < 4; cc++ {
				t[0][cc] = d[0][cc] - d[2][cc]
				t[1][cc] = d[1][cc] + d[2][cc]
				t[2][cc] = d[2][cc] - d[1][cc]
				t[3][cc] = d[1][cc] - d[3][cc]
			}
			// V = t B.
			for r := 0; r < 4; r++ {
				v[((r*4+0)*nb+j)*c+ch] = t[r][0] - t[r][2]
				v[((r*4+1)*nb+j)*c+ch] = t[r][1] + t[r][2]
				v[((r*4+2)*nb+j)*c+ch] = t[r][2] - t[r][1]
				v[((r*4+3)*nb+j)*c+ch] = t[r][1] - t[r][3]
			}
		}
	}
}

// winogradOutputTile computes Y = Aᵀ M A for slot j of a block of nb tiles
// of output block co — m[(xi·nb + j)·ocb + oi] — and stores the outputs of
// the 2x2 tile at (oy, ox) of image b that fall inside the image, through
// the fused epilogue.
func winogradOutputTile(out *tensor.Tensor, m []float32, epi Epilogue, b, co, oy, ox, j, nb, ocOuter, ocb, oh, ow int) {
	outBase := (b*ocOuter + co) * oh
	for oi := 0; oi < ocb; oi++ {
		var mm [4][4]float32
		for r := 0; r < 4; r++ {
			for cc := 0; cc < 4; cc++ {
				mm[r][cc] = m[((r*4+cc)*nb+j)*ocb+oi]
			}
		}
		// Aᵀ = [1 1 1 0; 0 1 -1 -1].
		var t0, t1 [4]float32
		for cc := 0; cc < 4; cc++ {
			t0[cc] = mm[0][cc] + mm[1][cc] + mm[2][cc]
			t1[cc] = mm[1][cc] - mm[2][cc] - mm[3][cc]
		}
		y00 := t0[0] + t0[1] + t0[2]
		y01 := t0[1] - t0[2] - t0[3]
		y10 := t1[0] + t1[1] + t1[2]
		y11 := t1[1] - t1[2] - t1[3]

		store := func(dy, dx int, val float32) {
			yy, xx := oy+dy, ox+dx
			if yy >= oh || xx >= ow {
				return
			}
			idx := ((outBase+yy)*ow+xx)*ocb + oi
			if epi.Bias != nil {
				val += epi.Bias[co*ocb+oi]
			}
			if epi.Residual != nil {
				val += epi.Residual.Data[idx]
			}
			if epi.ReLU {
				val = relu32(val)
			}
			out.Data[idx] = val
		}
		store(0, 0, y00)
		store(0, 1, y01)
		store(1, 0, y10)
		store(1, 1, y11)
	}
}

// Conv2DWinograd performs a 3x3 stride-1 convolution over an NCHW input
// using the F(2x2, 3x3) Winograd algorithm with pre-transformed weights from
// WinogradWeightTransform. Odd output dimensions are handled by computing
// the final partial tile and discarding the out-of-range half.
func Conv2DWinograd(in, transformed *tensor.Tensor, attrs Conv2DAttrs, epi Epilogue, pf ParallelFor) *tensor.Tensor {
	if in.Layout.Kind != tensor.LayoutNCHW {
		panic(fmt.Sprintf("ops: Conv2DWinograd expects NCHW input, got %v", in.Layout))
	}
	if attrs.KH != 3 || attrs.KW != 3 || attrs.StrideH != 1 || attrs.StrideW != 1 {
		panic("ops: Conv2DWinograd supports 3x3 stride-1 convolutions only")
	}
	n, c, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	oc := transformed.Shape[1]
	if transformed.Shape[0] != 16 || transformed.Shape[2] != c {
		panic(fmt.Sprintf("ops: transformed weight shape %v inconsistent with input channels %d", transformed.Shape, c))
	}
	oh, ow := attrs.OutSize(h, w)
	out := tensor.New(tensor.NCHW(), n, oc, oh, ow)
	if pf == nil {
		pf = Serial
	}

	tilesH := (oh + 1) / 2
	tilesW := (ow + 1) / 2
	ocIn := oc * c

	pf(n*tilesH, func(lo, hi int) {
		// Per-thread scratch, fully rewritten by every tile: V tiles for all
		// channels, M accumulators.
		v := make([]float32, 16*c)
		m := make([]float32, 16*oc)
		for unit := lo; unit < hi; unit++ {
			b := unit / tilesH
			th := unit % tilesH
			for tw := 0; tw < tilesW; tw++ {
				oy := th * 2
				ox := tw * 2
				// Input tile origin (top-left of the 4x4 patch).
				iy0 := oy - attrs.PadH
				ix0 := ox - attrs.PadW

				// V = Bᵀ d B per input channel.
				for ch := 0; ch < c; ch++ {
					var d [4][4]float32
					base := (b*c + ch) * h * w
					for r := 0; r < 4; r++ {
						iy := iy0 + r
						if iy < 0 || iy >= h {
							continue
						}
						row := in.Data[base+iy*w:]
						for cc := 0; cc < 4; cc++ {
							ix := ix0 + cc
							if ix >= 0 && ix < w {
								d[r][cc] = row[ix]
							}
						}
					}
					// t = Bᵀ d, with Bᵀ = [1 0 -1 0; 0 1 1 0; 0 -1 1 0; 0 1 0 -1].
					var t [4][4]float32
					for cc := 0; cc < 4; cc++ {
						t[0][cc] = d[0][cc] - d[2][cc]
						t[1][cc] = d[1][cc] + d[2][cc]
						t[2][cc] = d[2][cc] - d[1][cc]
						t[3][cc] = d[1][cc] - d[3][cc]
					}
					// V = t B.
					for r := 0; r < 4; r++ {
						v[(r*4+0)*c+ch] = t[r][0] - t[r][2]
						v[(r*4+1)*c+ch] = t[r][1] + t[r][2]
						v[(r*4+2)*c+ch] = t[r][2] - t[r][1]
						v[(r*4+3)*c+ch] = t[r][1] - t[r][3]
					}
				}

				// M[xi][k] = Σ_ch U[xi][k][ch] * V[xi][ch]: the element-wise
				// product in the transform domain, reduced over input channels.
				for xi := 0; xi < 16; xi++ {
					uBase := xi * ocIn
					vSeg := v[xi*c : xi*c+c]
					mSeg := m[xi*oc : xi*oc+oc]
					for k := 0; k < oc; k++ {
						uSeg := transformed.Data[uBase+k*c : uBase+k*c+c]
						var acc float32
						for ch := range vSeg {
							acc += uSeg[ch] * vSeg[ch]
						}
						mSeg[k] = acc
					}
				}

				// Y = Aᵀ M A per output channel, with Aᵀ = [1 1 1 0; 0 1 -1 -1].
				for k := 0; k < oc; k++ {
					var mm [4][4]float32
					for r := 0; r < 4; r++ {
						for cc := 0; cc < 4; cc++ {
							mm[r][cc] = m[(r*4+cc)*oc+k]
						}
					}
					var t0, t1 [4]float32
					for cc := 0; cc < 4; cc++ {
						t0[cc] = mm[0][cc] + mm[1][cc] + mm[2][cc]
						t1[cc] = mm[1][cc] - mm[2][cc] - mm[3][cc]
					}
					y00 := t0[0] + t0[1] + t0[2]
					y01 := t0[1] - t0[2] - t0[3]
					y10 := t1[0] + t1[1] + t1[2]
					y11 := t1[1] - t1[2] - t1[3]

					store := func(dy, dx int, val float32) {
						yy, xx := oy+dy, ox+dx
						if yy >= oh || xx >= ow {
							return
						}
						idx := ((b*oc+k)*oh+yy)*ow + xx
						if epi.Bias != nil {
							val += epi.Bias[k]
						}
						if epi.Residual != nil {
							val += epi.Residual.Data[idx]
						}
						if epi.ReLU {
							val = relu32(val)
						}
						out.Data[idx] = val
					}
					store(0, 0, y00)
					store(0, 1, y01)
					store(1, 0, y10)
					store(1, 1, y11)
				}
			}
		}
	})
	return out
}
