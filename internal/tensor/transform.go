package tensor

import "fmt"

// This file implements the layout-transformation kernels. In the paper these
// correspond to the LayoutTransform nodes inserted at the graph level
// (Section 3.2) and to the compile-time pre-transformation of convolution
// weights.

// EnsureDst returns dst when non-nil (validating its exact dimensions and
// layout against what the kernel produces) or allocates a fresh tensor. Every
// destination-buffer ("Into") kernel variant funnels through it so execution
// sessions can reuse arena buffers across inferences, and a mis-sized buffer
// panics instead of silently computing over wrong geometry. shape does not
// escape (New and the panic message copy it), so a caller's variadic
// arguments stay on its stack and a provided dst costs no allocation.
func EnsureDst(dst *Tensor, layout Layout, shape ...int) *Tensor {
	if dst == nil {
		return New(layout, shape...)
	}
	ok := len(dst.Shape) == len(shape)
	for i := 0; ok && i < len(shape); i++ {
		ok = dst.Shape[i] == shape[i]
	}
	if !ok {
		panic(fmt.Sprintf("tensor: destination shape %v, kernel produces %v", dst.Shape, append([]int(nil), shape...)))
	}
	if !dst.Layout.Equal(layout) {
		panic(fmt.Sprintf("tensor: destination layout %v, kernel produces %v", dst.Layout, layout))
	}
	return dst
}

// ToNCHWc packs an NCHW activation into NCHW[x]c with block size x.
// C must be divisible by x.
func ToNCHWc(in *Tensor, x int) *Tensor {
	return ToNCHWcInto(nil, in, x)
}

// ToNCHWcInto is ToNCHWc writing into a caller-provided destination (nil dst
// allocates).
func ToNCHWcInto(dst, in *Tensor, x int) *Tensor {
	if in.Layout.Kind != LayoutNCHW {
		panic(fmt.Sprintf("tensor: ToNCHWc expects NCHW input, got %v", in.Layout))
	}
	n, c, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	if x <= 0 || c%x != 0 {
		panic(fmt.Sprintf("tensor: channels %d not divisible by block %d", c, x))
	}
	cOuter := c / x
	out := EnsureDst(dst, NCHWc(x), n, cOuter, h, w, x)
	if x == 1 {
		// NCHW1c has NCHW's memory order: nothing moves.
		copy(out.Data, in.Data)
		return out
	}
	hw := h * w
	for b := 0; b < n; b++ {
		for co := 0; co < cOuter; co++ {
			for ci := 0; ci < x; ci++ {
				src := in.Data[((b*c + co*x + ci) * hw):]
				// Destination stride between consecutive (h,w) positions in
				// NCHWc is x (the innermost sub-channel dimension).
				dstBase := (((b*cOuter+co)*h)*w)*x + ci
				for p := 0; p < hw; p++ {
					out.Data[dstBase+p*x] = src[p]
				}
			}
		}
	}
	return out
}

// FromNCHWc unpacks an NCHW[x]c activation back to NCHW.
func FromNCHWc(in *Tensor) *Tensor {
	return FromNCHWcInto(nil, in)
}

// FromNCHWcInto is FromNCHWc writing into a caller-provided destination (nil
// dst allocates).
func FromNCHWcInto(dst, in *Tensor) *Tensor {
	if in.Layout.Kind != LayoutNCHWc {
		panic(fmt.Sprintf("tensor: FromNCHWc expects NCHWc input, got %v", in.Layout))
	}
	n, cOuter, h, w, x := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3], in.Shape[4]
	c := cOuter * x
	out := EnsureDst(dst, NCHW(), n, c, h, w)
	if x == 1 {
		copy(out.Data, in.Data) // the same memory order, as in ToNCHWcInto
		return out
	}
	hw := h * w
	for b := 0; b < n; b++ {
		for co := 0; co < cOuter; co++ {
			for ci := 0; ci < x; ci++ {
				dst := out.Data[((b*c + co*x + ci) * hw):]
				srcBase := (((b*cOuter+co)*h)*w)*x + ci
				for p := 0; p < hw; p++ {
					dst[p] = in.Data[srcBase+p*x]
				}
			}
		}
	}
	return out
}

// RechunkNCHWc converts an NCHW[x]c activation to NCHW[y]c. This is the
// transform inserted between consecutive CONVs whose schedules picked
// different channel block factors (Section 3.3.1).
func RechunkNCHWc(in *Tensor, y int) *Tensor {
	if in.Layout.Kind != LayoutNCHWc {
		panic(fmt.Sprintf("tensor: RechunkNCHWc expects NCHWc input, got %v", in.Layout))
	}
	if in.Layout.BlockC == y {
		return in.Clone()
	}
	return ToNCHWc(FromNCHWc(in), y)
}

// NCHWToNHWC converts the default layout to channels-last.
func NCHWToNHWC(in *Tensor) *Tensor {
	return NCHWToNHWCInto(nil, in)
}

// NCHWToNHWCInto is NCHWToNHWC writing into a caller-provided destination
// (nil dst allocates).
func NCHWToNHWCInto(dst, in *Tensor) *Tensor {
	if in.Layout.Kind != LayoutNCHW {
		panic(fmt.Sprintf("tensor: NCHWToNHWC expects NCHW input, got %v", in.Layout))
	}
	n, c, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	out := EnsureDst(dst, NHWC(), n, h, w, c)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			for y := 0; y < h; y++ {
				srcRow := in.Data[(((b*c+ch)*h)+y)*w:]
				dstBase := ((b*h+y)*w)*c + ch
				for x := 0; x < w; x++ {
					out.Data[dstBase+x*c] = srcRow[x]
				}
			}
		}
	}
	return out
}

// NHWCToNCHW converts channels-last back to the default layout.
func NHWCToNCHW(in *Tensor) *Tensor {
	return NHWCToNCHWInto(nil, in)
}

// NHWCToNCHWInto is NHWCToNCHW writing into a caller-provided destination
// (nil dst allocates).
func NHWCToNCHWInto(dst, in *Tensor) *Tensor {
	if in.Layout.Kind != LayoutNHWC {
		panic(fmt.Sprintf("tensor: NHWCToNCHW expects NHWC input, got %v", in.Layout))
	}
	n, h, w, c := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	out := EnsureDst(dst, NCHW(), n, c, h, w)
	for b := 0; b < n; b++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				src := in.Data[(((b*h+y)*w)+x)*c:]
				for ch := 0; ch < c; ch++ {
					out.Data[(((b*c+ch)*h)+y)*w+x] = src[ch]
				}
			}
		}
	}
	return out
}

// PackWeights converts an OIHW (KCRS) weight tensor into the blocked
// OIHW[x]i[y]o (KCRS[x]c[y]k) layout expected by the blocked convolution
// template. I must be divisible by x and O by y. In NeoCPU this is done once
// at compile time ("pre-transformed kernel" in Figure 2).
func PackWeights(in *Tensor, x, y int) *Tensor {
	if in.Layout.Kind != LayoutOIHW {
		panic(fmt.Sprintf("tensor: PackWeights expects OIHW input, got %v", in.Layout))
	}
	o, i, kh, kw := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	if x <= 0 || i%x != 0 {
		panic(fmt.Sprintf("tensor: in-channels %d not divisible by block %d", i, x))
	}
	if y <= 0 || o%y != 0 {
		panic(fmt.Sprintf("tensor: out-channels %d not divisible by block %d", o, y))
	}
	oOuter, iOuter := o/y, i/x
	out := New(OIHWio(x, y), oOuter, iOuter, kh, kw, x, y)
	// Walk the destination in order; element (oc, ic, r, s) of the source
	// sits at (oc·I + ic)·KH·KW + r·KW + s, so consecutive sub-channels oi
	// are I·KH·KW apart.
	khw := kh * kw
	d := 0
	for oo := 0; oo < oOuter; oo++ {
		for io := 0; io < iOuter; io++ {
			for rs := 0; rs < khw; rs++ {
				for ii := 0; ii < x; ii++ {
					src := (oo*y*i+io*x+ii)*khw + rs
					row := out.Data[d : d+y]
					for oi := range row {
						row[oi] = in.Data[src]
						src += i * khw
					}
					d += y
				}
			}
		}
	}
	return out
}

// UnpackWeights converts blocked OIHW[x]i[y]o weights back to OIHW.
func UnpackWeights(in *Tensor) *Tensor {
	if in.Layout.Kind != LayoutOIHWio {
		panic(fmt.Sprintf("tensor: UnpackWeights expects OIHWio input, got %v", in.Layout))
	}
	oOuter, iOuter, kh, kw, x, y := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3], in.Shape[4], in.Shape[5]
	o, i := oOuter*y, iOuter*x
	out := New(OIHW(), o, i, kh, kw)
	for oo := 0; oo < oOuter; oo++ {
		for io := 0; io < iOuter; io++ {
			for r := 0; r < kh; r++ {
				for s := 0; s < kw; s++ {
					base := ((((oo*iOuter+io)*kh+r)*kw + s) * x) * y
					for ii := 0; ii < x; ii++ {
						for oi := 0; oi < y; oi++ {
							v := in.Data[base+ii*y+oi]
							oc := oo*y + oi
							ic := io*x + ii
							out.Data[((oc*i+ic)*kh+r)*kw+s] = v
						}
					}
				}
			}
		}
	}
	return out
}

// Transform converts an activation tensor between any two supported
// activation layouts. It is the generic kernel behind graph-level
// LayoutTransform nodes.
func Transform(in *Tensor, to Layout) *Tensor {
	return TransformInto(nil, nil, in, to)
}

// NeedsTransformScratch reports whether TransformInto routes from→to through
// an intermediate NCHW buffer (two-hop transforms between non-default
// layouts). Sessions use it to decide which transform nodes get a scratch
// buffer in their arena.
func NeedsTransformScratch(from, to Layout) bool {
	if from.Equal(to) || to.Kind == LayoutAny {
		return false
	}
	switch {
	case from.Kind == LayoutNCHWc && to.Kind == LayoutNCHWc:
		return true
	case from.Kind == LayoutNHWC && to.Kind == LayoutNCHWc:
		return true
	case from.Kind == LayoutNCHWc && to.Kind == LayoutNHWC:
		return true
	}
	return false
}

// TransformInto is Transform writing into a caller-provided destination.
// scratch, when the transform needs an intermediate NCHW hop (see
// NeedsTransformScratch), must hold the activation's NCHW volume; nil dst or
// scratch allocate.
func TransformInto(dst, scratch *Tensor, in *Tensor, to Layout) *Tensor {
	from := in.Layout
	if from.Equal(to) || to.Kind == LayoutAny {
		if dst == nil {
			return in.Clone()
		}
		out := EnsureDst(dst, in.Layout, in.Shape...)
		copy(out.Data, in.Data)
		return out
	}
	switch {
	case from.Kind == LayoutNCHW && to.Kind == LayoutNCHWc:
		return ToNCHWcInto(dst, in, to.BlockC)
	case from.Kind == LayoutNCHWc && to.Kind == LayoutNCHW:
		return FromNCHWcInto(dst, in)
	case from.Kind == LayoutNCHWc && to.Kind == LayoutNCHWc:
		// Equal block factors were already handled by the from.Equal(to)
		// copy path above, so this is always a genuine re-chunk.
		return ToNCHWcInto(dst, FromNCHWcInto(scratch, in), to.BlockC)
	case from.Kind == LayoutNCHW && to.Kind == LayoutNHWC:
		return NCHWToNHWCInto(dst, in)
	case from.Kind == LayoutNHWC && to.Kind == LayoutNCHW:
		return NHWCToNCHWInto(dst, in)
	case from.Kind == LayoutNHWC && to.Kind == LayoutNCHWc:
		return ToNCHWcInto(dst, NHWCToNCHWInto(scratch, in), to.BlockC)
	case from.Kind == LayoutNCHWc && to.Kind == LayoutNHWC:
		return NCHWToNHWCInto(dst, FromNCHWcInto(scratch, in))
	}
	panic(fmt.Sprintf("tensor: unsupported transform %v -> %v", from, to))
}
