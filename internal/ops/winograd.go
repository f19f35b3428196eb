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
// is contiguous. It feeds the NCHW reference kernel Conv2DWinograd.
func WinogradWeightTransform(weight *tensor.Tensor) *tensor.Tensor {
	o, i := winogradWeightDims(weight, "WinogradWeightTransform")
	out := tensor.New(tensor.Flat(), 16, o, i)
	for oc := 0; oc < o; oc++ {
		for ic := 0; ic < i; ic++ {
			var u [16]float32
			winogradKernelTile(&u, weight.Data[(oc*i+ic)*9:])
			for xi, v := range u {
				out.Data[(xi*o+oc)*i+ic] = v
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
//
// It is one pass: each (out, in) channel pair's 16 components are computed
// and stored straight into their packed places, with no (16, O, I)
// intermediate. The pass runs in parallel over output blocks on pf (nil
// means serial); each range writes only its own blocks' slabs, so U's bits
// are the same under every pf and equal WinogradWeightTransform's, packed.
func WinogradWeightTransformNCHWc(weight *tensor.Tensor, icb, ocb int, pf ParallelFor) *tensor.Tensor {
	o, i := winogradWeightDims(weight, "WinogradWeightTransformNCHWc")
	if icb <= 0 || i%icb != 0 {
		panic(fmt.Sprintf("ops: in-channels %d not divisible by block %d", i, icb))
	}
	if ocb <= 0 || o%ocb != 0 {
		panic(fmt.Sprintf("ops: out-channels %d not divisible by block %d", o, ocb))
	}
	if pf == nil {
		pf = Serial
	}
	oOuter := o / ocb
	out := tensor.New(tensor.Flat(), 16, oOuter, i/icb, icb, ocb)
	// Component xi of channel pair (oc, ic) lands at xi·O·I + (oc/ocb)·I·ocb +
	// ic·ocb + oc%ocb: within one output block the input channels run
	// contiguously, each an ocb-wide row of sub-channels.
	pf(oOuter, func(lo, hi int) {
		// One input block's tiles for the whole output block are computed
		// into tiles first, then stored as 16 contiguous icb·ocb slabs, one
		// per component: the slabs lie O·I floats apart, often a power of
		// two, and storing them one value at a time would thrash the cache
		// sets they share.
		slab := icb * ocb
		tiles := make([][16]float32, slab)
		for co := lo; co < hi; co++ {
			for ib := 0; ib < i/icb; ib++ {
				for ii := 0; ii < icb; ii++ {
					ic := ib*icb + ii
					for os := 0; os < ocb; os++ {
						winogradKernelTile(&tiles[ii*ocb+os], weight.Data[((co*ocb+os)*i+ic)*9:])
					}
				}
				dst := (co*i + ib*icb) * ocb
				for xi := 0; xi < 16; xi++ {
					row := out.Data[xi*o*i+dst:][:slab]
					for k := range row {
						row[k] = tiles[k][xi]
					}
				}
			}
		}
	})
	return out
}

// winogradWeightDims checks that weight is a 3x3 OIHW kernel and returns its
// output and input channel counts.
func winogradWeightDims(weight *tensor.Tensor, fn string) (o, i int) {
	if weight.Layout.Kind != tensor.LayoutOIHW {
		panic(fmt.Sprintf("ops: %s expects OIHW, got %v", fn, weight.Layout))
	}
	if kh, kw := weight.Shape[2], weight.Shape[3]; kh != 3 || kw != 3 {
		panic(fmt.Sprintf("ops: Winograd F(2,3) requires 3x3 kernels, got %dx%d", kh, kw))
	}
	return weight.Shape[0], weight.Shape[1]
}

// winogradKernelTile stores u = G g Gᵀ for one 3x3 kernel g (row-major, the
// first 9 values of g) in u, row-major over the 4x4 components. With
// G = [1 0 0; ½ ½ ½; ½ -½ ½; 0 0 1], row r of t = G g is g's first row, the
// half-sum and half-alternating-sum of its rows, and its last row; row r of
// u is then the same combination of row r of t's three values.
func winogradKernelTile(u *[16]float32, g []float32) {
	g = g[:9]
	winogradKernelRow(u[0:4], g[0], g[1], g[2])
	winogradKernelRow(u[4:8], 0.5*(g[0]+g[3]+g[6]), 0.5*(g[1]+g[4]+g[7]), 0.5*(g[2]+g[5]+g[8]))
	winogradKernelRow(u[8:12], 0.5*(g[0]-g[3]+g[6]), 0.5*(g[1]-g[4]+g[7]), 0.5*(g[2]-g[5]+g[8]))
	winogradKernelRow(u[12:16], g[6], g[7], g[8])
}

// winogradKernelRow stores one row of u = t Gᵀ from the row (t0, t1, t2) of t.
func winogradKernelRow(u []float32, t0, t1, t2 float32) {
	u = u[:4]
	u[0] = t0
	u[1] = 0.5 * (t0 + t1 + t2)
	u[2] = 0.5 * (t0 - t1 + t2)
	u[3] = t2
}

// WinogradScratchShape returns the buffer shape Conv2DWinogradNCHWcInto needs
// for its transform scratch, given the blocked input's physical NCHW[x]c
// shape; Sessions use it to size arenas once and keep steady-state execution
// allocation-free. The shape is that of the walk the layer's size picks
// (winogradWeightStationary). The tile-stationary walk holds V for one tile
// row per parallel unit, n·⌈oh/2⌉ rows of 16·C floats, and a range's tile
// blocks use only the rows of its own units. The weight-stationary walk holds
// V for every tile followed by M for every tile and output channel,
// 16·tiles·(C + OutC) floats, and a range writes only the M of its own output
// blocks. Either way concurrent ranges never write a shared slice.
func WinogradScratchShape(inShape []int, attrs Conv2DAttrs) []int {
	return winogradScratchShape(inShape, attrs, winogradWeightStationary(inShape, attrs))
}

// winogradWeightStationary is the walk rule: a layer takes the
// weight-stationary walk when its transformed weight U (16·OutC·C floats)
// outweighs the transformed input V of all its tiles (16·tiles·C floats),
// that is when OutC > tiles.
func winogradWeightStationary(inShape []int, attrs Conv2DAttrs) bool {
	n, tilesH, tilesW := winogradTileGrid(inShape, attrs)
	return attrs.OutC > n*tilesH*tilesW
}

// winogradScratchShape is WinogradScratchShape for the walk the caller names.
func winogradScratchShape(inShape []int, attrs Conv2DAttrs, weightStationary bool) []int {
	n, tilesH, tilesW := winogradTileGrid(inShape, attrs)
	c := inShape[1] * inShape[4]
	if weightStationary {
		return []int{16 * n * tilesH * tilesW * (c + attrs.OutC)}
	}
	return []int{n * tilesH, 16 * c}
}

// winogradTileGrid returns the batch size and the number of 2x2 output tile
// rows and columns per image for a blocked input of physical shape inShape.
func winogradTileGrid(inShape []int, attrs Conv2DAttrs) (n, tilesH, tilesW int) {
	oh, ow := attrs.OutSize(inShape[2], inShape[3])
	return inShape[0], (oh + 1) / 2, (ow + 1) / 2
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
// WinogradScratchShape) holds the transform-domain tiles. Either may be nil,
// in which case it is allocated. Padding is applied implicitly by the data
// transform's border handling — no explicit padding scratch is needed.
//
// The layer's size picks one of two walks over the transform-domain product
// (winogradWeightStationary): the tile-stationary walk when V outweighs U,
// the weight-stationary walk otherwise. Both reduce every output element over
// the input channels in ascending order on the same rankK body, so the choice
// never changes the result's bits.
func Conv2DWinogradNCHWcInto(dst, scratch *tensor.Tensor, in, transformed *tensor.Tensor, attrs Conv2DAttrs, icb, ocb int, epi Epilogue, pf ParallelFor) *tensor.Tensor {
	if in.Layout.Kind != tensor.LayoutNCHWc || in.Layout.BlockC != icb {
		panic(fmt.Sprintf("ops: Conv2DWinogradNCHWc expects NCHW%dc input, got %v", icb, in.Layout))
	}
	if attrs.KH != 3 || attrs.KW != 3 || attrs.StrideH != 1 || attrs.StrideW != 1 {
		panic("ops: Conv2DWinogradNCHWc supports 3x3 stride-1 convolutions only")
	}
	n, icOuter, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
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
	ws := winogradWeightStationary(in.Shape, attrs)
	scr := tensor.EnsureDst(scratch, tensor.Flat(), winogradScratchShape(in.Shape, attrs, ws)...)
	if ws {
		winogradWeightWalk(out, scr.Data, in, transformed, attrs, icb, ocb, epi, pf)
	} else {
		winogradTileWalk(out, scr.Data, in, transformed, attrs, icb, ocb, epi, pf)
	}
	return out
}

// winogradTileWalk is the tile-stationary walk, for layers whose V outweighs
// U. One parallel unit per (batch, tile row); a range owns the scratch rows
// of its units. It walks its tiles in row-major order, across tile-row and
// batch boundaries, in blocks of up to winogradBlock tiles: the block's data
// transforms fill V, then one rankK per (component, output block) multiplies
// every tile of the block by the same U slab, so each weight vector is loaded
// once per block rather than once per tile. A block of tb tiles needs
// 16·tb·C floats of V, which the range's tb ≤ hi-lo rows hold.
func winogradTileWalk(out *tensor.Tensor, scratch []float32, in, transformed *tensor.Tensor, attrs Conv2DAttrs, icb, ocb int, epi Epilogue, pf ParallelFor) {
	n, icOuter, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	c := icOuter * icb
	ocOuter, oh, ow := out.Shape[1], out.Shape[2], out.Shape[3]
	tilesH, tilesW := (oh+1)/2, (ow+1)/2
	uStride := c * ocb // one (component, oc-block) slab

	pf(n*tilesH, func(lo, hi int) {
		tb := min(winogradBlock, hi-lo)
		v := scratch[lo*16*c : (lo+tb)*16*c]
		// On the goroutine stack for every block size the schedule space
		// emits: the component accumulators of one output block for the
		// whole tile block, the zero-padded patch of one border tile's input
		// block, and one inverse-transformed output tile.
		var mArr [16 * winogradBlock * 64]float32
		var patchArr [16 * 64]float32
		var yArr [4 * 64]float32
		m := stackOrHeap(mArr[:], 16*tb*ocb)
		patch := stackOrHeap(patchArr[:], 16*icb)
		y := stackOrHeap(yArr[:], 4*ocb)
		for t0, tEnd := lo*tilesW, hi*tilesW; t0 < tEnd; t0 += tb {
			nb := min(tb, tEnd-t0)
			for j := 0; j < nb; j++ {
				b, oy, ox := winogradTileOrigin(t0+j, tilesH, tilesW)
				winogradInputTile(in, v[j*c:], patch, attrs, b, oy, ox, nb*c, icOuter, icb, h, w)
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
					winogradOut(y, mb[j*ocb:], nb*ocb, ocb)
					winogradStoreTile(out, y, epi, b, co, oy, ox, ocOuter, ocb, oh, ow)
				}
			}
		}
	})
}

// winogradWeightWalk is the weight-stationary walk, for layers whose U
// outweighs V: Lavin and Gray's batched form, M[xi] = V[xi]·U[xi] over all
// tiles at once. A first parallel pass over tiles fills V for every tile; a
// second, over output blocks, runs one rankK per component with every tile as
// a row, so each U slab is read once per convolution and stays in L1 across
// rankK's row blocks, then inverse-transforms and stores the block's tiles.
// scratch holds V, [16][tiles][C], then M, [ocOuter][16][tiles][ocb]: each
// output block owns its M.
func winogradWeightWalk(out *tensor.Tensor, scratch []float32, in, transformed *tensor.Tensor, attrs Conv2DAttrs, icb, ocb int, epi Epilogue, pf ParallelFor) {
	n, icOuter, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	c := icOuter * icb
	ocOuter, oh, ow := out.Shape[1], out.Shape[2], out.Shape[3]
	tilesH, tilesW := (oh+1)/2, (ow+1)/2
	tiles := n * tilesH * tilesW
	uStride := c * ocb
	v, m := scratch[:16*tiles*c], scratch[16*tiles*c:]

	pf(tiles, func(lo, hi int) {
		var patchArr [16 * 64]float32
		patch := stackOrHeap(patchArr[:], 16*icb)
		for t := lo; t < hi; t++ {
			b, oy, ox := winogradTileOrigin(t, tilesH, tilesW)
			winogradInputTile(in, v[t*c:], patch, attrs, b, oy, ox, tiles*c, icOuter, icb, h, w)
		}
	})
	pf(ocOuter, func(lo, hi int) {
		var yArr [4 * 64]float32
		y := stackOrHeap(yArr[:], 4*ocb)
		for co := lo; co < hi; co++ {
			mc := m[co*16*tiles*ocb : (co+1)*16*tiles*ocb]
			clear(mc)
			for xi := 0; xi < 16; xi++ {
				rankK(mc[xi*tiles*ocb:], v[xi*tiles*c:], transformed.Data[(xi*ocOuter+co)*uStride:], tiles, c, c, ocb)
			}
			for t := 0; t < tiles; t++ {
				b, oy, ox := winogradTileOrigin(t, tilesH, tilesW)
				winogradOut(y, mc[t*ocb:], tiles*ocb, ocb)
				winogradStoreTile(out, y, epi, b, co, oy, ox, ocOuter, ocb, oh, ow)
			}
		}
	})
}

// stackOrHeap returns buf[:n], or a heap slice when n exceeds the stack
// array behind buf (a block size beyond the schedule space).
func stackOrHeap(buf []float32, n int) []float32 {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]float32, n)
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
// at output pixel (oy, ox) of image b, read from the blocked layout, one
// input block per winogradIn call: channel ch of component xi goes to
// v[xi·vStride + ch]. An interior tile's patch is read in place; a border
// tile's valid rows and columns are first copied into the zeroed patch
// buffer (16·icb floats), whose zeros are the padding.
func winogradInputTile(in *tensor.Tensor, v, patch []float32, attrs Conv2DAttrs, b, oy, ox, vStride, icOuter, icb, h, w int) {
	iy0 := oy - attrs.PadH
	ix0 := ox - attrs.PadW
	if iy0 >= 0 && ix0 >= 0 && iy0+4 <= h && ix0+4 <= w {
		for coi := 0; coi < icOuter; coi++ {
			winogradIn(v[coi*icb:], in.Data[(((b*icOuter+coi)*h+iy0)*w+ix0)*icb:], w*icb, vStride, icb)
		}
		return
	}
	r0, r1 := max(0, -iy0), min(4, h-iy0)
	c0, c1 := max(0, -ix0), min(4, w-ix0)
	// Every input block has the same valid region, so one clear serves them
	// all: each block overwrites exactly the cells the previous one wrote.
	clear(patch)
	for coi := 0; coi < icOuter; coi++ {
		for r := r0; r < r1 && c0 < c1; r++ {
			copy(patch[(r*4+c0)*icb:(r*4+c1)*icb], in.Data[(((b*icOuter+coi)*h+iy0+r)*w+ix0+c0)*icb:])
		}
		winogradIn(v[coi*icb:], patch, 4*icb, vStride, icb)
	}
}

// winogradStoreTile stores the inverse-transformed 2x2 tile y (winogradOut's
// layout) of output block co at output pixel (oy, ox) of image b: the
// columns inside the image, one tile row inside the image at a time, through
// the fused epilogue.
func winogradStoreTile(out *tensor.Tensor, y []float32, epi Epilogue, b, co, oy, ox, ocOuter, ocb, oh, ow int) {
	cols := min(2, ow-ox) * ocb
	for dy := 0; dy < 2 && oy+dy < oh; dy++ {
		storeTile(out.Data, y[dy*2*ocb:][:cols], epi, (((b*ocOuter+co)*oh+oy+dy)*ow+ox)*ocb, co, ocb)
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
