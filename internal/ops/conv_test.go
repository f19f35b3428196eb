package ops

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// convCase builds a random conv workload and returns input (NCHW) and weight
// (OIHW).
func convCase(seed uint64, c, h, w, oc, kh, kw int) (*tensor.Tensor, *tensor.Tensor) {
	in := tensor.New(tensor.NCHW(), 1, c, h, w)
	in.FillRandom(seed, 1)
	wt := tensor.New(tensor.OIHW(), oc, c, kh, kw)
	wt.FillRandom(seed+1, 0.5)
	return in, wt
}

func runBlocked(in, wt *tensor.Tensor, attrs Conv2DAttrs, icb, ocb, regN int, unroll bool, epi Epilogue) *tensor.Tensor {
	blockedIn := tensor.ToNCHWc(in, icb)
	blockedWt := tensor.PackWeights(wt, icb, ocb)
	var blockedEpi Epilogue
	blockedEpi.Bias = epi.Bias
	blockedEpi.ReLU = epi.ReLU
	if epi.Residual != nil {
		blockedEpi.Residual = tensor.ToNCHWc(epi.Residual, ocb)
	}
	out := Conv2DNCHWc(blockedIn, blockedWt, attrs, icb, ocb, regN, unroll, blockedEpi, Serial)
	return tensor.FromNCHWc(out)
}

func TestConv2DNCHWBasic(t *testing.T) {
	// Hand-checkable case: 1 channel, 2x2 input, 1x1 kernel of value 2.
	in := tensor.New(tensor.NCHW(), 1, 1, 2, 2)
	in.Data = []float32{1, 2, 3, 4}
	wt := tensor.New(tensor.OIHW(), 1, 1, 1, 1)
	wt.Data = []float32{2}
	out := Conv2DNCHW(in, wt, Conv2DAttrs{OutC: 1, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, Epilogue{}, nil)
	want := []float32{2, 4, 6, 8}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("out[%d] = %v, want %v", i, out.Data[i], v)
		}
	}
}

func TestConv2DNCHWIdentityKernel(t *testing.T) {
	// A 3x3 kernel with a single 1 in the center and pad 1 is identity.
	in, _ := convCase(10, 4, 6, 6, 0, 0, 0)
	wt := tensor.New(tensor.OIHW(), 4, 4, 3, 3)
	for k := 0; k < 4; k++ {
		wt.Set(1, k, k, 1, 1)
	}
	out := Conv2DNCHW(in, wt, Conv2DAttrs{OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, Epilogue{}, nil)
	if tensor.MaxAbsDiff(in, out) != 0 {
		t.Fatal("identity convolution must reproduce input")
	}
}

func TestConvNCHWcMatchesReference(t *testing.T) {
	cases := []struct {
		name                string
		c, h, w, oc, kh, kw int
		sh, sw, ph, pw      int
		icb, ocb, regN      int
		unroll              bool
	}{
		{"3x3-pad1", 16, 14, 14, 32, 3, 3, 1, 1, 1, 1, 8, 16, 4, false},
		{"3x3-pad1-unroll", 16, 14, 14, 32, 3, 3, 1, 1, 1, 1, 8, 16, 4, true},
		{"3x3-ocb4-unroll", 16, 14, 14, 32, 3, 3, 1, 1, 1, 1, 8, 4, 4, true},
		{"3x3-ocb8-unroll", 16, 14, 14, 32, 3, 3, 1, 1, 1, 1, 8, 8, 4, true},
		{"3x3-generic-ocb", 12, 11, 11, 24, 3, 3, 1, 1, 1, 1, 6, 12, 4, true},
		{"1x1", 32, 7, 7, 64, 1, 1, 1, 1, 0, 0, 16, 16, 2, false},
		{"1x1-unroll", 32, 7, 7, 64, 1, 1, 1, 1, 0, 0, 16, 16, 2, true},
		{"1x1-ocb4-unroll", 32, 7, 7, 64, 1, 1, 1, 1, 0, 0, 16, 4, 2, true},
		{"1x1-ocb8-unroll", 32, 7, 7, 64, 1, 1, 1, 1, 0, 0, 16, 8, 2, true},
		{"1x1-plane-tiles-cross-rows", 16, 7, 9, 80, 1, 1, 1, 1, 0, 0, 8, 40, 8, false},
		{"1x1-stride2-rows", 48, 9, 9, 48, 1, 1, 2, 2, 0, 0, 16, 24, 4, true},
		{"1x1-pad1-rows", 8, 6, 6, 16, 1, 1, 1, 1, 1, 1, 8, 16, 8, false},
		{"stride2", 16, 15, 15, 16, 3, 3, 2, 2, 1, 1, 4, 8, 8, false},
		{"stride2-unroll", 16, 15, 15, 16, 3, 3, 2, 2, 1, 1, 4, 8, 8, true},
		{"5x5", 8, 12, 12, 16, 5, 5, 1, 1, 2, 2, 8, 8, 4, false},
		{"5x5-unroll-generic", 8, 12, 12, 16, 5, 5, 1, 1, 2, 2, 8, 8, 4, true},
		{"3x3-stride2-regn8", 64, 15, 15, 32, 3, 3, 2, 2, 1, 1, 32, 16, 8, true},
		{"3x3-stride2-regn16", 64, 15, 15, 32, 3, 3, 2, 2, 1, 1, 32, 16, 16, true},
		{"7x7-stride2", 4, 23, 23, 16, 7, 7, 2, 2, 3, 3, 4, 16, 4, false},
		{"7x7-stride2-icb1", 3, 23, 23, 32, 7, 7, 2, 2, 3, 3, 1, 32, 16, false},
		{"7x7-stride2-icb3", 3, 23, 23, 32, 7, 7, 2, 2, 3, 3, 3, 32, 8, false},
		{"tail-regn", 16, 10, 10, 16, 3, 3, 1, 1, 1, 1, 16, 16, 4, true},
		{"regn-bigger-than-ow", 16, 5, 5, 16, 3, 3, 1, 1, 1, 1, 16, 16, 32, false},
		{"block1", 6, 9, 9, 10, 3, 3, 1, 1, 1, 1, 1, 1, 4, false},
		{"asym-stride", 8, 16, 12, 8, 3, 3, 2, 1, 1, 1, 8, 8, 2, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, wt := convCase(99, tc.c, tc.h, tc.w, tc.oc, tc.kh, tc.kw)
			attrs := Conv2DAttrs{OutC: tc.oc, KH: tc.kh, KW: tc.kw, StrideH: tc.sh, StrideW: tc.sw, PadH: tc.ph, PadW: tc.pw}
			ref := Conv2DNCHW(in, wt, attrs, Epilogue{}, nil)
			got := runBlocked(in, wt, attrs, tc.icb, tc.ocb, tc.regN, tc.unroll, Epilogue{})
			if !tensor.AllClose(ref, got, 1e-4) {
				t.Fatalf("blocked conv diverges from reference: max diff %g", tensor.MaxAbsDiff(ref, got))
			}
		})
	}
}

func TestConvNHWCMatchesReference(t *testing.T) {
	in, wt := convCase(5, 8, 10, 10, 12, 3, 3)
	attrs := Conv2DAttrs{OutC: 12, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	ref := Conv2DNCHW(in, wt, attrs, Epilogue{}, nil)
	nhwcOut := Conv2DNHWC(tensor.NCHWToNHWC(in), wt, attrs, Epilogue{}, nil)
	got := tensor.NHWCToNCHW(nhwcOut)
	if !tensor.AllClose(ref, got, 1e-4) {
		t.Fatalf("NHWC conv diverges: max diff %g", tensor.MaxAbsDiff(ref, got))
	}
}

func TestConvEpilogueFusion(t *testing.T) {
	in, wt := convCase(7, 16, 8, 8, 16, 3, 3)
	attrs := Conv2DAttrs{OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	bias := make([]float32, 16)
	for i := range bias {
		bias[i] = float32(i)*0.1 - 0.5
	}
	res := tensor.New(tensor.NCHW(), 1, 16, 8, 8)
	res.FillRandom(8, 1)

	// Unfused reference: conv, bias via BN-like shift, add, relu.
	plain := Conv2DNCHW(in, wt, attrs, Epilogue{}, nil)
	want := plain.Clone()
	for k := 0; k < 16; k++ {
		for p := 0; p < 64; p++ {
			idx := k*64 + p
			v := want.Data[idx] + bias[k] + res.Data[idx]
			want.Data[idx] = relu32(v)
		}
	}

	// Fused epilogue in both reference and blocked kernels.
	epi := Epilogue{Bias: bias, Residual: res, ReLU: true}
	fusedRef := Conv2DNCHW(in, wt, attrs, epi, nil)
	if !tensor.AllClose(want, fusedRef, 1e-5) {
		t.Fatalf("reference epilogue fusion wrong: %g", tensor.MaxAbsDiff(want, fusedRef))
	}
	fusedBlocked := runBlocked(in, wt, attrs, 8, 8, 4, true, epi)
	if !tensor.AllClose(want, fusedBlocked, 1e-4) {
		t.Fatalf("blocked epilogue fusion wrong: %g", tensor.MaxAbsDiff(want, fusedBlocked))
	}
}

func TestConvParallelMatchesSerial(t *testing.T) {
	in, wt := convCase(13, 16, 12, 12, 32, 3, 3)
	attrs := Conv2DAttrs{OutC: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	blockedIn := tensor.ToNCHWc(in, 8)
	blockedWt := tensor.PackWeights(wt, 8, 16)
	serial := Conv2DNCHWc(blockedIn, blockedWt, attrs, 8, 16, 4, false, Epilogue{}, Serial)
	par := Conv2DNCHWc(blockedIn, blockedWt, attrs, 8, 16, 4, false, Epilogue{}, goPar(5))
	if tensor.MaxAbsDiff(serial, par) != 0 {
		t.Fatal("parallel conv must be bit-identical to serial")
	}
}

// TestConvUnrollKerSelectsNothing pins that the dense template has one
// path: unroll_ker true and false give bit-identical output for the same
// schedule, for the 3x3 shapes the flag used to specialise and for others.
func TestConvUnrollKerSelectsNothing(t *testing.T) {
	cases := []struct {
		name                   string
		c, h, oc, k, s, p      int
		icb, ocb, regN, groups int
	}{
		{"3x3-ocb16", 32, 14, 32, 3, 1, 1, 8, 16, 8, 1},
		{"3x3-stride2-ocb4", 16, 15, 16, 3, 2, 1, 8, 4, 4, 1},
		{"3x3-ocb12", 12, 11, 24, 3, 1, 1, 6, 12, 4, 1},
		{"3x3-grouped", 16, 9, 32, 3, 1, 1, 4, 8, 8, 2},
		{"7x7-stride2", 3, 23, 32, 7, 2, 3, 1, 32, 16, 1},
		{"1x1", 32, 7, 64, 1, 1, 0, 16, 16, 2, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, _ := convCase(15, tc.c, tc.h, tc.h, 0, 0, 0)
			wt := tensor.New(tensor.OIHW(), tc.oc, tc.c/tc.groups, tc.k, tc.k)
			wt.FillRandom(16, 0.5)
			attrs := Conv2DAttrs{OutC: tc.oc, KH: tc.k, KW: tc.k, StrideH: tc.s, StrideW: tc.s, PadH: tc.p, PadW: tc.p, Groups: tc.groups}
			bi := tensor.ToNCHWc(in, tc.icb)
			bw := tensor.PackWeights(wt, tc.icb, tc.ocb)
			plain := Conv2DNCHWc(bi, bw, attrs, tc.icb, tc.ocb, tc.regN, false, Epilogue{}, goPar(3))
			unrolled := Conv2DNCHWc(bi, bw, attrs, tc.icb, tc.ocb, tc.regN, true, Epilogue{}, goPar(3))
			if tensor.MaxAbsDiff(plain, unrolled) != 0 {
				t.Fatalf("unroll_ker changes the output by %g", tensor.MaxAbsDiff(plain, unrolled))
			}
			if d := tensor.MaxAbsDiff(Conv2DNCHW(in, wt, attrs, Epilogue{}, nil), tensor.FromNCHWc(plain)); d > 1e-4 {
				t.Fatalf("diverges from the reference by %g", d)
			}
		})
	}
}

// goPar is a crude concurrent ParallelFor: [0, n) split into up to `parts`
// ragged contiguous ranges, one goroutine each.
func goPar(parts int) ParallelFor {
	return func(n int, body func(lo, hi int)) {
		p := min(parts, n)
		var wg sync.WaitGroup
		for t := 0; t < p; t++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				body(t*n/p, (t+1)*n/p)
			}()
		}
		wg.Wait()
	}
}

// TestDirectConvNoPerRowAllocation pins the accumulator tile to the stack
// for the widest searched schedule (reg_n=32 × oc_bn=64): with destination
// and padding scratch provided, a 40-row convolution allocates exactly what a
// narrow-tile schedule does (the dispatch closure and the destination shape
// checks), nothing per row.
func TestDirectConvNoPerRowAllocation(t *testing.T) {
	in, wt := convCase(14, 8, 40, 40, 64, 3, 3)
	attrs := Conv2DAttrs{OutC: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	blockedIn := tensor.ToNCHWc(in, 8)
	pad := tensor.New(tensor.NCHWc(8), PaddedShapeNCHWc(blockedIn.Shape, attrs)...)
	run := func(ocb, regN int) (float64, *tensor.Tensor) {
		blockedWt := tensor.PackWeights(wt, 8, ocb)
		dst := tensor.New(tensor.NCHWc(ocb), 1, 64/ocb, 40, 40, ocb)
		return testing.AllocsPerRun(5, func() {
			Conv2DNCHWcInto(dst, pad, blockedIn, blockedWt, attrs, 8, ocb, regN, true, Epilogue{}, Serial)
		}), dst
	}
	narrow, _ := run(8, 4)
	wide, out := run(64, 32)
	if wide != narrow {
		t.Fatalf("32x64 direct schedule allocates %.0f objects per convolution, the 4x8 schedule %.0f: the wide tile left the stack", wide, narrow)
	}
	if d := tensor.MaxAbsDiff(Conv2DNCHW(in, wt, attrs, Epilogue{}, nil), tensor.FromNCHWc(out)); d > 1e-3 {
		t.Fatalf("32x64 schedule diverges from the reference by %g", d)
	}
}

func TestQuickBlockedConvEquivalence(t *testing.T) {
	f := func(seed uint64, cRaw, ocRaw, geomRaw, schedRaw uint8) bool {
		blocks := []int{1, 2, 4, 8}
		icb := blocks[int(cRaw)%len(blocks)]
		ocb := blocks[int(ocRaw)%len(blocks)]
		c := icb * (1 + int(cRaw/16)%3)
		oc := ocb * (1 + int(ocRaw/16)%3)
		geoms := []struct{ h, w, kh, kw, s, p int }{
			{8, 8, 3, 3, 1, 1}, {9, 7, 3, 3, 2, 1}, {6, 6, 1, 1, 1, 0}, {11, 11, 5, 5, 1, 2},
		}
		g := geoms[int(geomRaw)%len(geoms)]
		regN := []int{2, 4, 8}[int(schedRaw)%3]
		unroll := schedRaw%2 == 0
		in, wt := convCase(seed, c, g.h, g.w, oc, g.kh, g.kw)
		attrs := Conv2DAttrs{OutC: oc, KH: g.kh, KW: g.kw, StrideH: g.s, StrideW: g.s, PadH: g.p, PadW: g.p}
		ref := Conv2DNCHW(in, wt, attrs, Epilogue{}, nil)
		got := runBlocked(in, wt, attrs, icb, ocb, regN, unroll, Epilogue{})
		return tensor.AllClose(ref, got, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestConvNCHWcRejectsBadLayouts(t *testing.T) {
	in, wt := convCase(1, 8, 6, 6, 8, 3, 3)
	attrs := Conv2DAttrs{OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	blockedWt := tensor.PackWeights(wt, 4, 4)
	mustPanic(t, func() {
		Conv2DNCHWc(in, blockedWt, attrs, 4, 4, 4, false, Epilogue{}, nil) // input not blocked
	})
	blockedIn := tensor.ToNCHWc(in, 4)
	mustPanic(t, func() {
		Conv2DNCHWc(blockedIn, wt, attrs, 4, 4, 4, false, Epilogue{}, nil) // weight not packed
	})
	mustPanic(t, func() {
		Conv2DNCHWc(blockedIn, blockedWt, attrs, 4, 4, 0, false, Epilogue{}, nil) // bad reg_n
	})
}

func TestConvNCHWcRejectsUncoverableGeometry(t *testing.T) {
	// An input smaller than the kernel with no padding: truncating integer
	// division makes the nominal output size 1 even though the kernel
	// window falls off the data. The kernel must refuse loudly instead of
	// reading out of bounds.
	in := tensor.New(tensor.NCHWc(4), 1, 1, 1, 1, 4) // 1x1 spatial
	wt := tensor.New(tensor.OIHWio(4, 4), 1, 1, 3, 3, 4, 4)
	attrs := Conv2DAttrs{OutC: 4, KH: 3, KW: 3, StrideH: 3, StrideW: 3}
	mustPanic(t, func() {
		Conv2DNCHWc(in, wt, attrs, 4, 4, 2, false, Epilogue{}, nil)
	})
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestConvBatchedMatchesPerImage(t *testing.T) {
	// Batch-2 convolution must equal two independent batch-1 convolutions
	// in every kernel (reference, NHWC and blocked).
	in := tensor.New(tensor.NCHW(), 2, 8, 9, 9)
	in.FillRandom(90, 1)
	wt := tensor.New(tensor.OIHW(), 8, 8, 3, 3)
	wt.FillRandom(91, 0.5)
	attrs := Conv2DAttrs{OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}

	batched := Conv2DNCHW(in, wt, attrs, Epilogue{}, nil)
	per := in.NumElements() / 2
	perOut := batched.NumElements() / 2
	for img := 0; img < 2; img++ {
		one := tensor.FromData(tensor.NCHW(), in.Data[img*per:(img+1)*per], 1, 8, 9, 9)
		want := Conv2DNCHW(one, wt, attrs, Epilogue{}, nil)
		got := tensor.FromData(tensor.NCHW(), batched.Data[img*perOut:(img+1)*perOut], 1, 8, 9, 9)
		if tensor.MaxAbsDiff(want, got) != 0 {
			t.Fatalf("image %d batched reference conv differs", img)
		}
	}

	// Blocked kernel on the same batch.
	bi := tensor.ToNCHWc(in, 4)
	bw := tensor.PackWeights(wt, 4, 8)
	blocked := tensor.FromNCHWc(Conv2DNCHWc(bi, bw, attrs, 4, 8, 4, true, Epilogue{}, nil))
	if !tensor.AllClose(batched, blocked, 1e-4) {
		t.Fatalf("batched blocked conv diverges: %g", tensor.MaxAbsDiff(batched, blocked))
	}

	// NHWC kernel on the same batch.
	nhwc := tensor.NHWCToNCHW(Conv2DNHWC(tensor.NCHWToNHWC(in), wt, attrs, Epilogue{}, nil))
	if !tensor.AllClose(batched, nhwc, 1e-4) {
		t.Fatalf("batched NHWC conv diverges: %g", tensor.MaxAbsDiff(batched, nhwc))
	}
}

func TestConvAsymmetricPadding(t *testing.T) {
	// Rectangular kernels with distinct h/w padding (Inception's 1x7/7x1).
	in, _ := convCase(95, 8, 10, 10, 0, 0, 0)
	wt := tensor.New(tensor.OIHW(), 8, 8, 1, 7)
	wt.FillRandom(96, 0.5)
	attrs := Conv2DAttrs{OutC: 8, KH: 1, KW: 7, StrideH: 1, StrideW: 1, PadH: 0, PadW: 3}
	ref := Conv2DNCHW(in, wt, attrs, Epilogue{}, nil)
	if ref.Shape[2] != 10 || ref.Shape[3] != 10 {
		t.Fatalf("1x7 conv output shape %v", ref.Shape)
	}
	got := runBlocked(in, wt, attrs, 4, 4, 4, false, Epilogue{})
	if !tensor.AllClose(ref, got, 1e-4) {
		t.Fatalf("1x7 blocked conv diverges: %g", tensor.MaxAbsDiff(ref, got))
	}
}
