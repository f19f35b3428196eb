package ops

import (
	"fmt"
	"testing"

	"repro/internal/tensor"
)

// groupedCase builds a random grouped-conv workload: NCHW input and the
// grouped OIHW weight (out, in/groups, kh, kw).
func groupedCase(seed uint64, c, h, w, oc, kh, kw, groups int) (*tensor.Tensor, *tensor.Tensor) {
	in := tensor.New(tensor.NCHW(), 1, c, h, w)
	in.FillRandom(seed, 1)
	wt := tensor.New(tensor.OIHW(), oc, c/groups, kh, kw)
	wt.FillRandom(seed+1, 0.5)
	return in, wt
}

// refGrouped computes the grouped convolution with scalar loops, independent
// of every kernel under test.
func refGrouped(in, wt *tensor.Tensor, attrs Conv2DAttrs) *tensor.Tensor {
	c, h, w := in.Shape[1], in.Shape[2], in.Shape[3]
	groups := attrs.GroupCount()
	icPerG, ocPerG := c/groups, attrs.OutC/groups
	oh, ow := attrs.OutSize(h, w)
	out := tensor.New(tensor.NCHW(), 1, attrs.OutC, oh, ow)
	for k := 0; k < attrs.OutC; k++ {
		icBase := (k / ocPerG) * icPerG
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				var acc float32
				for ci := 0; ci < icPerG; ci++ {
					for r := 0; r < attrs.KH; r++ {
						iy := y*attrs.StrideH + r - attrs.PadH
						if iy < 0 || iy >= h {
							continue
						}
						for s := 0; s < attrs.KW; s++ {
							ix := x*attrs.StrideW + s - attrs.PadW
							if ix < 0 || ix >= w {
								continue
							}
							acc += in.Data[((icBase+ci)*h+iy)*w+ix] *
								wt.Data[((k*icPerG+ci)*attrs.KH+r)*attrs.KW+s]
						}
					}
				}
				out.Data[(k*oh+y)*ow+x] = acc
			}
		}
	}
	return out
}

// TestConv2DNCHWGrouped checks the NCHW reference kernel against the scalar
// grouped reference, including the depthwise extreme.
func TestConv2DNCHWGrouped(t *testing.T) {
	cases := []struct {
		c, oc, k, stride, pad, groups int
	}{
		{8, 8, 3, 1, 1, 8},  // depthwise
		{8, 16, 3, 2, 1, 4}, // grouped, channel expansion, strided
		{12, 12, 1, 1, 0, 3},
		{6, 6, 5, 1, 2, 2},
	}
	for i, tc := range cases {
		attrs := Conv2DAttrs{OutC: tc.oc, KH: tc.k, KW: tc.k, StrideH: tc.stride, StrideW: tc.stride, PadH: tc.pad, PadW: tc.pad, Groups: tc.groups}
		in, wt := groupedCase(uint64(i)*7+3, tc.c, 9, 9, tc.oc, tc.k, tc.k, tc.groups)
		want := refGrouped(in, wt, attrs)
		got := Conv2DNCHW(in, wt, attrs, Epilogue{}, nil)
		if d := tensor.MaxAbsDiff(want, got); d > 1e-5 {
			t.Fatalf("case %d: NCHW grouped diverges by %g", i, d)
		}
	}
}

// TestConv2DNCHWcGrouped checks the blocked direct template's grouped path —
// every (ic_bn, oc_bn) pair that tiles the groups — against the NCHW
// reference.
func TestConv2DNCHWcGrouped(t *testing.T) {
	const c, oc, groups = 16, 32, 4
	for _, k := range []struct{ kh, stride, pad int }{{3, 1, 1}, {1, 1, 0}, {3, 2, 1}} {
		attrs := Conv2DAttrs{OutC: oc, KH: k.kh, KW: k.kh, StrideH: k.stride, StrideW: k.stride, PadH: k.pad, PadW: k.pad, Groups: groups}
		in, wt := groupedCase(11, c, 10, 10, oc, k.kh, k.kh, groups)
		want := Conv2DNCHW(in, wt, attrs, Epilogue{}, nil)
		for _, icb := range []int{1, 2, 4} { // divisors of c/groups = 4
			for _, ocb := range []int{2, 4, 8} { // divisors of oc/groups = 8
				blockedIn := tensor.ToNCHWc(in, icb)
				blockedWt := tensor.PackWeights(wt, icb, ocb)
				out := Conv2DNCHWc(blockedIn, blockedWt, attrs, icb, ocb, 4, Epilogue{}, Serial)
				if d := tensor.MaxAbsDiff(want, tensor.FromNCHWc(out)); d > 1e-5 {
					t.Fatalf("k=%d icb=%d ocb=%d: blocked grouped diverges by %g", k.kh, icb, ocb, d)
				}
			}
		}
	}
}

// depthwiseCase is one geometry of TestConv2DDepthwiseNCHWc: c channels over
// an h × w input, a k × k kernel.
type depthwiseCase struct {
	name                           string
	c, h, w, k, stride, padH, padW int
}

// depthwiseNCHWcCases are TestConv2DDepthwiseNCHWc's rows: every block size
// dividing c, including the 32- and 64-lane blocks the search plans for
// MobileNet, full and partial reg_n runs, strides, and windows clipped by the
// padding on one side, on both sides (1×1 and 2×2 inputs, a 5×5 kernel over
// a 3×3 input), with PadH ≠ PadW, and not at all (a 1×1 kernel with pad 1,
// whose border outputs read no input).
var depthwiseNCHWcCases = []depthwiseCase{
	{"c16-12x12-k3-s1", 16, 12, 12, 3, 1, 1, 1},
	{"c16-12x12-k3-s2", 16, 12, 12, 3, 2, 1, 1},
	{"c16-9x9-k3-s1", 16, 9, 9, 3, 1, 1, 1},
	{"c32-9x9-k3-s1", 32, 9, 9, 3, 1, 1, 1},
	{"c8-7x7-k5-s1", 8, 7, 7, 5, 1, 2, 2},
	{"c8-9x9-k5-s1", 8, 9, 9, 5, 1, 2, 2},
	{"c48-8x8-k3-s1", 48, 8, 8, 3, 1, 1, 1},     // bn=16 and generic bn via divisors
	{"c64-13x13-k3-s2", 64, 13, 13, 3, 2, 1, 1}, // searched blocks, stride 2, 7 output columns
	{"c128-9x9-k3-s1", 128, 9, 9, 3, 1, 1, 1},   // searched blocks, 9 output columns
	{"c64-1x1-k3-s1", 64, 1, 1, 3, 1, 1, 1},     // the one column clipped on both sides
	{"c64-2x2-k3-s1", 64, 2, 2, 3, 1, 1, 1},
	{"c64-2x2-k3-s2", 64, 2, 2, 3, 2, 1, 1},
	{"c32-3x3-k5-s1", 32, 3, 3, 5, 1, 2, 2}, // the middle column clipped on both sides
	{"c32-9x7-k3-padH1-padW0", 32, 9, 7, 3, 1, 1, 0},
	{"c32-7x9-k3-padH0-padW1-s2", 32, 7, 9, 3, 2, 0, 1},
	{"c16-8x11-k5-padH1-padW2", 16, 8, 11, 5, 1, 1, 2},
	{"c16-4x4-k1-pad1", 16, 4, 4, 1, 1, 1, 1},
}

// laneMACGo is the depthwise microkernel the template ran before it clipped
// its windows, kept here as depthwiseOracle's: one kernel row of taps applied
// lane-wise to a rows × bn accumulator tile, each element's tap sum formed
// in ascending s from rounded products, then added to acc once.
func laneMACGo(acc, x, w []float32, rows, taps, xStride, bn int) {
	for i := 0; i < rows; i++ {
		a := acc[i*bn : i*bn+bn]
		xi := x[i*xStride:]
		for v := range a {
			sum := float32(xi[v] * w[v])
			for s := 1; s < taps; s++ {
				sum += float32(xi[s*bn+v] * w[s*bn+v])
			}
			a[v] += sum
		}
	}
}

// depthwiseOracle is the depthwise template as it was before it clipped its
// windows: the input explicitly padded by padNCHWc, per output position an
// accumulator cleared to +0 and one laneMACGo per kernel row over the padded
// rows, then epilogueGo. The template must equal it bit for bit.
func depthwiseOracle(in, weight *tensor.Tensor, attrs Conv2DAttrs, bn int, epi Epilogue) *tensor.Tensor {
	n, cOuter, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	kh, kw := weight.Shape[2], weight.Shape[3]
	oh, ow := attrs.OutSize(h, w)
	padded := padNCHWc(in, attrs.PadH, attrs.PadW, nil)
	ph, pw := padded.Shape[2], padded.Shape[3]
	out := tensor.New(tensor.NCHWc(bn), n, cOuter, oh, ow, bn)
	acc := make([]float32, bn)
	for b := 0; b < n; b++ {
		for co := 0; co < cOuter; co++ {
			var bias []float32
			if epi.Bias != nil {
				bias = epi.Bias[co*bn : co*bn+bn]
			}
			for y := 0; y < oh; y++ {
				for x := 0; x < ow; x++ {
					clear(acc)
					for r := 0; r < kh; r++ {
						laneMACGo(acc, padded.Data[(((b*cOuter+co)*ph+y*attrs.StrideH+r)*pw+x*attrs.StrideW)*bn:],
							weight.Data[(co*kh+r)*kw*bn:], 1, kw, attrs.StrideW*bn, bn)
					}
					off := (((b*cOuter+co)*oh+y)*ow + x) * bn
					var res []float32
					if epi.Residual != nil {
						res = epi.Residual.Data[off : off+bn]
					}
					epilogueGo(out.Data[off:off+bn], acc, bias, res, 1, bn, epi.ReLU)
				}
			}
		}
	}
	return out
}

// run checks the template on tc's geometry — every block size dividing c,
// every reg_n shape, serially and over ragged parallel ranges, with the full
// bias + residual + ReLU epilogue — against the NCHW reference, and bit for
// bit against depthwiseOracle.
func (tc depthwiseCase) run(t *testing.T) {
	t.Helper()
	attrs := Conv2DAttrs{OutC: tc.c, KH: tc.k, KW: tc.k, StrideH: tc.stride, StrideW: tc.stride, PadH: tc.padH, PadW: tc.padW, Groups: tc.c}
	in, wt := groupedCase(uint64(tc.c), tc.c, tc.h, tc.w, tc.c, tc.k, tc.k, tc.c)
	bias := make([]float32, tc.c)
	for i := range bias {
		bias[i] = float32(i%5) * 0.1
	}
	oh, ow := attrs.OutSize(tc.h, tc.w)
	res := tensor.New(tensor.NCHW(), 1, tc.c, oh, ow)
	res.FillRandom(uint64(tc.c)+2, 1)
	want := Conv2DNCHW(in, wt, attrs, Epilogue{Bias: bias, Residual: res, ReLU: true}, nil)
	for _, bn := range []int{4, 8, 16, 3, 32, 64} {
		if tc.c%bn != 0 {
			continue
		}
		blockedIn := tensor.ToNCHWc(in, bn)
		packed := tensor.PackWeights(wt, 1, bn)
		epi := Epilogue{Bias: bias, Residual: tensor.ToNCHWc(res, bn), ReLU: true}
		oracle := depthwiseOracle(blockedIn, packed, attrs, bn, epi)
		for _, regN := range []int{1, 4, 16} {
			for i, pf := range []ParallelFor{Serial, goPar(3)} {
				name := fmt.Sprintf("bn=%d regN=%d %s", bn, regN, []string{"Serial", "goPar(3)"}[i])
				out := Conv2DDepthwiseNCHWc(blockedIn, packed, attrs, bn, regN, epi, pf)
				if d := tensor.MaxAbsDiff(want, tensor.FromNCHWc(out)); d > 1e-5 {
					t.Fatalf("%s: depthwise diverges from the reference by %g", name, d)
				}
				if !tensor.BitEqual(oracle, out) {
					t.Fatalf("%s: depthwise output differs in its bits from the explicitly padded oracle", name)
				}
			}
		}
	}
}

// TestConv2DDepthwiseNCHWc runs depthwiseNCHWcCases.
func TestConv2DDepthwiseNCHWc(t *testing.T) {
	for _, tc := range depthwiseNCHWcCases {
		t.Run(tc.name, tc.run)
	}
}

// TestConv2DDepthwiseNCHWcResidual checks the fused residual path and the
// destination-buffer variant, the session arena contract: a destination
// reused across calls gets the same output each time.
func TestConv2DDepthwiseNCHWcResidual(t *testing.T) {
	const c, h, bn = 16, 10, 8
	attrs := Conv2DAttrs{OutC: c, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: c}
	in, wt := groupedCase(77, c, h, h, c, 3, 3, c)
	res := tensor.New(tensor.NCHW(), 1, c, h, h)
	res.FillRandom(99, 1)
	want := Conv2DNCHW(in, wt, attrs, Epilogue{Residual: res, ReLU: true}, nil)

	blockedIn := tensor.ToNCHWc(in, bn)
	packed := tensor.PackWeights(wt, 1, bn)
	blockedRes := tensor.ToNCHWc(res, bn)
	dst := tensor.New(tensor.NCHWc(bn), 1, c/bn, h, h, bn)
	for pass := 0; pass < 2; pass++ { // second pass reuses the destination
		out := Conv2DDepthwiseNCHWcInto(dst, blockedIn, packed, attrs, bn, 4,
			Epilogue{Residual: blockedRes, ReLU: true}, Serial)
		if d := tensor.MaxAbsDiff(want, tensor.FromNCHWc(out)); d > 1e-5 {
			t.Fatalf("pass %d: depthwise residual diverges by %g", pass, d)
		}
	}
}
