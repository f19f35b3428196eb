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

// TestConv2DNCHWGrouped checks the NCHW and NHWC reference kernels against
// the scalar grouped reference, including the depthwise extreme.
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
		nhwc := Conv2DNHWC(tensor.NCHWToNHWC(in), wt, attrs, Epilogue{}, nil)
		if d := tensor.MaxAbsDiff(want, tensor.NHWCToNCHW(nhwc)); d > 1e-5 {
			t.Fatalf("case %d: NHWC grouped diverges by %g", i, d)
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

// TestConv2DDepthwiseNCHWc checks the depthwise template — every block size,
// including the 32- and 64-lane blocks the search plans for MobileNet, every
// reg_n shape with full and partial last tiles, strides and the full bias +
// residual + ReLU epilogue, serially and over ragged parallel ranges —
// against the NCHW reference.
func TestConv2DDepthwiseNCHWc(t *testing.T) {
	for _, tc := range []struct {
		c, h, k, stride, pad int
	}{
		{16, 12, 3, 1, 1},
		{16, 12, 3, 2, 1},
		{16, 9, 3, 1, 1},
		{32, 9, 3, 1, 1},
		{8, 7, 5, 1, 2},
		{8, 9, 5, 1, 2},
		{48, 8, 3, 1, 1},  // c=48 exercises bn=16 and generic bn via divisors
		{64, 13, 3, 2, 1}, // searched blocks, stride 2, 7 output columns
		{128, 9, 3, 1, 1}, // searched blocks, 9 output columns
	} {
		attrs := Conv2DAttrs{OutC: tc.c, KH: tc.k, KW: tc.k, StrideH: tc.stride, StrideW: tc.stride, PadH: tc.pad, PadW: tc.pad, Groups: tc.c}
		in, wt := groupedCase(uint64(tc.c), tc.c, tc.h, tc.h, tc.c, tc.k, tc.k, tc.c)
		bias := make([]float32, tc.c)
		for i := range bias {
			bias[i] = float32(i%5) * 0.1
		}
		oh, ow := attrs.OutSize(tc.h, tc.h)
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
			for _, regN := range []int{1, 4, 16} {
				for i, pf := range []ParallelFor{Serial, goPar(3)} {
					name := fmt.Sprintf("c=%d k=%d s=%d bn=%d regN=%d %s", tc.c, tc.k, tc.stride, bn, regN, []string{"Serial", "goPar(3)"}[i])
					out := Conv2DDepthwiseNCHWc(blockedIn, packed, attrs, bn, regN, epi, pf)
					if d := tensor.MaxAbsDiff(want, tensor.FromNCHWc(out)); d > 1e-5 {
						t.Fatalf("%s: depthwise diverges by %g", name, d)
					}
				}
			}
		}
	}
}

// TestConv2DDepthwiseNCHWcResidual checks the fused residual path and the
// destination-buffer variant with a reused pad scratch (the session arena
// contract: the zero border must survive between calls).
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
	pad := tensor.New(tensor.NCHWc(bn), PaddedShapeNCHWc(blockedIn.Shape, attrs)...)
	for pass := 0; pass < 2; pass++ { // second pass reuses the pad scratch
		out := Conv2DDepthwiseNCHWcInto(dst, pad, blockedIn, packed, attrs, bn, 4,
			Epilogue{Residual: blockedRes, ReLU: true}, Serial)
		if d := tensor.MaxAbsDiff(want, tensor.FromNCHWc(out)); d > 1e-5 {
			t.Fatalf("pass %d: depthwise residual diverges by %g", pass, d)
		}
	}
}
