package ops

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// PoolKind selects the pooling reduction.
type PoolKind int

const (
	// MaxPool takes the window maximum.
	MaxPool PoolKind = iota
	// AvgPool takes the window average (count excludes padding).
	AvgPool
)

// PoolAttrs carries pooling geometry.
type PoolAttrs struct {
	Kind             PoolKind
	KH, KW           int
	StrideH, StrideW int
	PadH, PadW       int
	// CountIncludePad, when true, divides average pooling by the full window
	// size even at borders (matches some frameworks' conventions).
	CountIncludePad bool
}

// OutSize returns output spatial dims for input h×w.
func (a PoolAttrs) OutSize(h, w int) (int, int) {
	return (h+2*a.PadH-a.KH)/a.StrideH + 1, (w+2*a.PadW-a.KW)/a.StrideW + 1
}

// Pool2D performs spatial pooling. It is layout-tolerant (Section 3.2
// category 2): it handles both NCHW and NCHW[x]c inputs and preserves the
// input layout, so a blocked layout flows through it without transformation.
func Pool2D(in *tensor.Tensor, attrs PoolAttrs, pf ParallelFor) *tensor.Tensor {
	return Pool2DInto(nil, in, attrs, pf)
}

// Pool2DInto is Pool2D writing into a caller-provided destination (nil dst
// allocates).
func Pool2DInto(dst, in *tensor.Tensor, attrs PoolAttrs, pf ParallelFor) *tensor.Tensor {
	switch in.Layout.Kind {
	case tensor.LayoutNCHW:
		return poolNCHW(dst, in, attrs, pf)
	case tensor.LayoutNCHWc:
		return poolNCHWc(dst, in, attrs, pf)
	default:
		panic(fmt.Sprintf("ops: Pool2D supports NCHW and NCHWc, got %v", in.Layout))
	}
}

func poolNCHW(dst, in *tensor.Tensor, attrs PoolAttrs, pf ParallelFor) *tensor.Tensor {
	n, c, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	oh, ow := attrs.OutSize(h, w)
	out := tensor.EnsureDst(dst, tensor.NCHW(), n, c, oh, ow)
	if pf == nil {
		pf = Serial
	}
	pf(n*c, func(lo, hi int) {
		for unit := lo; unit < hi; unit++ {
			b, ch := unit/c, unit%c
			src := in.Data[(b*c+ch)*h*w:]
			dst := out.Data[(b*c+ch)*oh*ow:]
			for y := 0; y < oh; y++ {
				for x := 0; x < ow; x++ {
					dst[y*ow+x] = poolWindow(src, h, w, y, x, attrs)
				}
			}
		}
	})
	return out
}

func poolNCHWc(dst, in *tensor.Tensor, attrs PoolAttrs, pf ParallelFor) *tensor.Tensor {
	n, co, h, w, x := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3], in.Shape[4]
	oh, ow := attrs.OutSize(h, w)
	out := tensor.EnsureDst(dst, in.Layout, n, co, oh, ow, x)
	if pf == nil {
		pf = Serial
	}
	pf(n*co, func(lo, hi int) {
		for unit := lo; unit < hi; unit++ {
			src := in.Data[unit*h*w*x : (unit+1)*h*w*x]
			dst := out.Data[unit*oh*ow*x : (unit+1)*oh*ow*x]
			for p := 0; p < oh*ow; p++ {
				poolBlockWindow(dst[p*x:(p+1)*x], src, h, w, p/ow, p%ow, attrs)
			}
		}
	})
	return out
}

// poolBlockWindow reduces one pooling window for every lane of a channel
// block at once: d receives the len(d) lanes of output pixel (oy, ox) and
// src is the block's h×w plane of len(d)-lane pixels. It visits the window's
// in-image positions in poolWindow's (r, s) order, so every lane gets
// poolWindow's bits: max pooling starts from -Inf and folds each position in
// with laneMax, average pooling sums from +0 and divides once, and a window
// with no position inside the image writes 0.
func poolBlockWindow(d, src []float32, h, w, oy, ox int, attrs PoolAttrs) {
	bn := len(d)
	isMax := attrs.Kind == MaxPool
	start := float32(0)
	if isMax {
		start = float32(math.Inf(-1))
	}
	for i := range d {
		d[i] = start
	}
	count := 0
	for r := 0; r < attrs.KH; r++ {
		iy := oy*attrs.StrideH + r - attrs.PadH
		if iy < 0 || iy >= h {
			continue
		}
		for s := 0; s < attrs.KW; s++ {
			ix := ox*attrs.StrideW + s - attrs.PadW
			if ix < 0 || ix >= w {
				continue
			}
			v := src[(iy*w+ix)*bn:][:bn]
			if isMax {
				laneMax(d, v, bn)
			} else {
				for i, x := range v {
					d[i] += x
				}
			}
			count++
		}
	}
	if count == 0 {
		clear(d)
		return
	}
	if !isMax {
		if attrs.CountIncludePad {
			count = attrs.KH * attrs.KW
		}
		for i := range d {
			d[i] /= float32(count)
		}
	}
}

// poolWindow reduces one pooling window of an h×w plane.
func poolWindow(src []float32, h, w, oy, ox int, attrs PoolAttrs) float32 {
	best := float32(math.Inf(-1))
	var sum float32
	count := 0
	for r := 0; r < attrs.KH; r++ {
		iy := oy*attrs.StrideH + r - attrs.PadH
		if iy < 0 || iy >= h {
			continue
		}
		for s := 0; s < attrs.KW; s++ {
			ix := ox*attrs.StrideW + s - attrs.PadW
			if ix < 0 || ix >= w {
				continue
			}
			v := src[iy*w+ix]
			if v > best {
				best = v
			}
			sum += v
			count++
		}
	}
	if attrs.Kind == MaxPool {
		if count == 0 {
			return 0
		}
		return best
	}
	if attrs.CountIncludePad {
		count = attrs.KH * attrs.KW
	}
	if count == 0 {
		return 0
	}
	return sum / float32(count)
}

// GlobalAvgPool reduces each channel's full feature map to one value,
// returning an NCHW tensor of shape (N, C, 1, 1). Layout-tolerant: accepts
// NCHW and NCHWc.
func GlobalAvgPool(in *tensor.Tensor, pf ParallelFor) *tensor.Tensor {
	return GlobalAvgPoolInto(nil, in, pf)
}

// GlobalAvgPoolInto is GlobalAvgPool writing into a caller-provided
// destination (nil dst allocates).
func GlobalAvgPoolInto(dst, in *tensor.Tensor, pf ParallelFor) *tensor.Tensor {
	switch in.Layout.Kind {
	case tensor.LayoutNCHW:
		n, c, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
		out := tensor.EnsureDst(dst, tensor.NCHW(), n, c, 1, 1)
		if pf == nil {
			pf = Serial
		}
		pf(n*c, func(lo, hi int) {
			for unit := lo; unit < hi; unit++ {
				src := in.Data[unit*h*w : (unit+1)*h*w]
				var sum float64
				for _, v := range src {
					sum += float64(v)
				}
				out.Data[unit] = float32(sum / float64(h*w))
			}
		})
		return out
	case tensor.LayoutNCHWc:
		n, co, h, w, x := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3], in.Shape[4]
		c := co * x
		out := tensor.EnsureDst(dst, tensor.NCHW(), n, c, 1, 1)
		if pf == nil {
			pf = Serial
		}
		pf(n*co, func(lo, hi int) {
			// Stack-allocated accumulators for every realistic block size.
			var sumsArr [64]float64
			sums := sumsArr[:]
			if x > len(sumsArr) {
				sums = make([]float64, x)
			}
			for unit := lo; unit < hi; unit++ {
				b, ch := unit/co, unit%co
				src := in.Data[(b*co+ch)*h*w*x:]
				clear(sums[:x])
				for p := 0; p < h*w; p++ {
					for ci := 0; ci < x; ci++ {
						sums[ci] += float64(src[p*x+ci])
					}
				}
				for ci := 0; ci < x; ci++ {
					out.Data[b*c+ch*x+ci] = float32(sums[ci] / float64(h*w))
				}
			}
		})
		return out
	default:
		panic(fmt.Sprintf("ops: GlobalAvgPool supports NCHW and NCHWc, got %v", in.Layout))
	}
}
