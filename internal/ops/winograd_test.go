package ops

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func runWinograd(in, wt *tensor.Tensor, attrs Conv2DAttrs, epi Epilogue) *tensor.Tensor {
	u := WinogradWeightTransform(wt)
	return Conv2DWinograd(in, u, attrs, epi, nil)
}

func TestWinogradMatchesReference(t *testing.T) {
	cases := []struct {
		name          string
		c, h, w, ocnt int
		pad           int
	}{
		{"even-pad1", 8, 8, 8, 16, 1},
		{"even-pad0", 8, 10, 10, 8, 0},
		{"odd-output-pad1", 4, 7, 9, 8, 1}, // 7x9 output: partial tiles
		{"odd-output-pad0", 4, 7, 7, 4, 0}, // 5x5 output
		{"single-channel", 1, 6, 6, 1, 1},
		{"wide", 3, 5, 17, 5, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, wt := convCase(77, tc.c, tc.h, tc.w, tc.ocnt, 3, 3)
			attrs := Conv2DAttrs{OutC: tc.ocnt, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: tc.pad, PadW: tc.pad}
			ref := Conv2DNCHW(in, wt, attrs, Epilogue{}, nil)
			got := runWinograd(in, wt, attrs, Epilogue{})
			if !tensor.AllClose(ref, got, 1e-3) {
				t.Fatalf("winograd diverges from direct: max diff %g", tensor.MaxAbsDiff(ref, got))
			}
		})
	}
}

func TestWinogradEpilogue(t *testing.T) {
	in, wt := convCase(78, 8, 8, 8, 8, 3, 3)
	attrs := Conv2DAttrs{OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	bias := make([]float32, 8)
	for i := range bias {
		bias[i] = float32(i)*0.2 - 0.7
	}
	res := tensor.New(tensor.NCHW(), 1, 8, 8, 8)
	res.FillRandom(79, 1)
	epi := Epilogue{Bias: bias, Residual: res, ReLU: true}
	ref := Conv2DNCHW(in, wt, attrs, epi, nil)
	got := runWinograd(in, wt, attrs, epi)
	if !tensor.AllClose(ref, got, 1e-3) {
		t.Fatalf("winograd fused epilogue diverges: %g", tensor.MaxAbsDiff(ref, got))
	}
}

func TestWinogradParallelMatchesSerial(t *testing.T) {
	in, wt := convCase(80, 8, 12, 12, 8, 3, 3)
	attrs := Conv2DAttrs{OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	u := WinogradWeightTransform(wt)
	serial := Conv2DWinograd(in, u, attrs, Epilogue{}, Serial)
	par := Conv2DWinograd(in, u, attrs, Epilogue{}, goPar(4))
	if tensor.MaxAbsDiff(serial, par) != 0 {
		t.Fatal("parallel winograd must be bit-identical to serial")
	}
}

func TestWinogradRejectsUnsupported(t *testing.T) {
	in, wt := convCase(81, 4, 8, 8, 4, 3, 3)
	u := WinogradWeightTransform(wt)
	mustPanic(t, func() {
		Conv2DWinograd(in, u, Conv2DAttrs{OutC: 4, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, Epilogue{}, nil)
	})
	_, wt5 := convCase(82, 4, 8, 8, 4, 5, 5)
	mustPanic(t, func() { WinogradWeightTransform(wt5) })
	mustPanic(t, func() {
		Conv2DWinograd(tensor.ToNCHWc(in, 4), u, Conv2DAttrs{OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1}, Epilogue{}, nil)
	})
}

func runWinogradBlocked(in, wt *tensor.Tensor, attrs Conv2DAttrs, icb, ocb int, epi Epilogue, scratch *tensor.Tensor) *tensor.Tensor {
	blockedIn := tensor.ToNCHWc(in, icb)
	u := WinogradWeightTransformNCHWc(wt, icb, ocb)
	var blockedEpi Epilogue
	blockedEpi.Bias = epi.Bias
	blockedEpi.ReLU = epi.ReLU
	if epi.Residual != nil {
		blockedEpi.Residual = tensor.ToNCHWc(epi.Residual, ocb)
	}
	out := Conv2DWinogradNCHWcInto(nil, scratch, blockedIn, u, attrs, icb, ocb, blockedEpi, Serial)
	return tensor.FromNCHWc(out)
}

func TestWinogradNCHWcMatchesReference(t *testing.T) {
	cases := []struct {
		name          string
		c, h, w, ocnt int
		pad           int
		icb, ocb      int
	}{
		{"even-pad1-8x8", 8, 8, 8, 16, 1, 8, 8},
		{"even-pad1-16c", 16, 14, 14, 32, 1, 16, 16},
		{"odd-output", 4, 7, 9, 8, 1, 4, 4},
		{"pad0", 8, 10, 10, 8, 0, 4, 8},
		{"block1", 3, 6, 6, 5, 1, 1, 1},
		{"mixed-blocks", 6, 9, 11, 12, 1, 3, 4},
		{"generic-ocb", 10, 8, 8, 10, 1, 5, 10}, // oc_bn not a multiple of 8: rankK's Go body on every CPU
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, wt := convCase(83, tc.c, tc.h, tc.w, tc.ocnt, 3, 3)
			attrs := Conv2DAttrs{OutC: tc.ocnt, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: tc.pad, PadW: tc.pad}
			ref := Conv2DNCHW(in, wt, attrs, Epilogue{}, nil)
			got := runWinogradBlocked(in, wt, attrs, tc.icb, tc.ocb, Epilogue{}, nil)
			if !tensor.AllClose(ref, got, 1e-3) {
				t.Fatalf("blocked winograd diverges from direct: max diff %g", tensor.MaxAbsDiff(ref, got))
			}
		})
	}
}

func TestWinogradNCHWcScratchReuse(t *testing.T) {
	in, wt := convCase(84, 8, 12, 12, 16, 3, 3)
	attrs := Conv2DAttrs{OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	blockedIn := tensor.ToNCHWc(in, 8)
	u := WinogradWeightTransformNCHWc(wt, 8, 8)
	scratch := tensor.New(tensor.Flat(), WinogradScratchShape(blockedIn.Shape, attrs)...)
	dst := tensor.New(tensor.NCHWc(8), 1, 2, 12, 12, 8)
	want := Conv2DWinogradNCHWc(blockedIn, u, attrs, 8, 8, Epilogue{}, nil)
	// Reusing the same destination and scratch across runs must stay
	// bit-identical: nothing in the kernel may depend on buffer contents.
	for i := 0; i < 2; i++ {
		got := Conv2DWinogradNCHWcInto(dst, scratch, blockedIn, u, attrs, 8, 8, Epilogue{}, nil)
		if got != dst {
			t.Fatal("Into variant must write the provided destination")
		}
		if tensor.MaxAbsDiff(want, got) != 0 {
			t.Fatalf("run %d: scratch reuse changed the result", i)
		}
	}
}

// TestWinogradNCHWcTileBlocks pins the tile-blocked product: a range walks
// its tiles in blocks that cross tile-row and batch boundaries, and a range
// shorter than a block gets a shorter block. The output must stay within the
// reference tolerance and bit-identical across pool widths — the partition
// decides block boundaries, and each element still reduces over the input
// channels in one fixed order.
func TestWinogradNCHWcTileBlocks(t *testing.T) {
	cases := []struct {
		name          string
		c, h, w, ocnt int
		pad, icb, ocb int
	}{
		{"7x7-out", 16, 7, 7, 32, 1, 8, 16},
		{"9x11-out", 16, 9, 11, 32, 1, 16, 32},
		{"9x11-out-ocb4", 8, 9, 11, 8, 1, 4, 4},
		{"6x6-out-pad0", 8, 8, 8, 16, 0, 8, 8},
	}
	for _, tc := range cases {
		for _, n := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/n%d", tc.name, n), func(t *testing.T) {
				in := tensor.New(tensor.NCHW(), n, tc.c, tc.h, tc.w)
				in.FillRandom(86, 1)
				wt := tensor.New(tensor.OIHW(), tc.ocnt, tc.c, 3, 3)
				wt.FillRandom(87, 0.5)
				attrs := Conv2DAttrs{OutC: tc.ocnt, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: tc.pad, PadW: tc.pad}
				oh, ow := attrs.OutSize(tc.h, tc.w)
				bias := make([]float32, tc.ocnt)
				for i := range bias {
					bias[i] = float32(i)*0.05 - 0.3
				}
				res := tensor.New(tensor.NCHW(), n, tc.ocnt, oh, ow)
				res.FillRandom(88, 1)
				ref := Conv2DNCHW(in, wt, attrs, Epilogue{Bias: bias, Residual: res, ReLU: true}, nil)

				blockedIn := tensor.ToNCHWc(in, tc.icb)
				u := WinogradWeightTransformNCHWc(wt, tc.icb, tc.ocb)
				epi := Epilogue{Bias: bias, Residual: tensor.ToNCHWc(res, tc.ocb), ReLU: true}
				var first *tensor.Tensor
				for _, p := range []int{1, 2, 3, 5} {
					got := Conv2DWinogradNCHWc(blockedIn, u, attrs, tc.icb, tc.ocb, epi, goPar(p))
					if first == nil {
						first = got
						if d := tensor.MaxAbsDiff(ref, tensor.FromNCHWc(got)); d > 1e-3 {
							t.Fatalf("diverges from the reference by %g", d)
						}
					} else if tensor.MaxAbsDiff(first, got) != 0 {
						t.Fatalf("pool width %d is not bit-identical to width 1", p)
					}
				}
			})
		}
	}
}

// TestWinogradNCHWcNoPerTileAllocation pins the transform-domain tile to the
// stack at the widest searched oc_bn: with destination and scratch provided,
// a convolution allocates only its fixed dispatch cost (the range closure and
// the destination shape checks), the same at oc_bn 64 — where the 16×4×64
// accumulator block exactly fills the stack array — as at oc_bn 8, and the
// same for a 4× larger image.
func TestWinogradNCHWcNoPerTileAllocation(t *testing.T) {
	allocs := func(hw, ocb int) float64 {
		in, wt := convCase(89, 16, hw, hw, 64, 3, 3)
		attrs := Conv2DAttrs{OutC: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
		blockedIn := tensor.ToNCHWc(in, 16)
		u := WinogradWeightTransformNCHWc(wt, 16, ocb)
		scratch := tensor.New(tensor.Flat(), WinogradScratchShape(blockedIn.Shape, attrs)...)
		dst := tensor.New(tensor.NCHWc(ocb), 1, 64/ocb, hw, hw, ocb)
		return testing.AllocsPerRun(5, func() {
			Conv2DWinogradNCHWcInto(dst, scratch, blockedIn, u, attrs, 16, ocb, Epilogue{}, Serial)
		})
	}
	narrow, wide, big := allocs(10, 8), allocs(10, 64), allocs(40, 64)
	if wide != narrow || big != wide {
		t.Fatalf("allocations per convolution: oc_bn 8 %.0f, oc_bn 64 %.0f, oc_bn 64 on a 4x larger image %.0f: the accumulator block left the stack",
			narrow, wide, big)
	}
}

func TestWinogradNCHWcRejectsBadShapes(t *testing.T) {
	in, wt := convCase(85, 8, 8, 8, 16, 3, 3)
	blockedIn := tensor.ToNCHWc(in, 8)
	u := WinogradWeightTransformNCHWc(wt, 8, 8)
	attrs := Conv2DAttrs{OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	// Strided attrs.
	mustPanic(t, func() {
		bad := attrs
		bad.StrideH, bad.StrideW = 2, 2
		Conv2DWinogradNCHWc(blockedIn, u, bad, 8, 8, Epilogue{}, nil)
	})
	// Wrong input block.
	mustPanic(t, func() {
		Conv2DWinogradNCHWc(tensor.ToNCHWc(in, 4), u, attrs, 8, 8, Epilogue{}, nil)
	})
	// Transformed weight inconsistent with the declared blocks.
	mustPanic(t, func() {
		Conv2DWinogradNCHWc(blockedIn, u, attrs, 8, 16, Epilogue{}, nil)
	})
	// Non-dividing weight blocks.
	mustPanic(t, func() { WinogradWeightTransformNCHWc(wt, 3, 8) })
	mustPanic(t, func() { WinogradWeightTransformNCHWc(wt, 8, 3) })
}

// TestQuickWinogradBlockedEquivalence is the property test of the blocked
// Winograd kernel: random geometry, random block factors drawn from the
// channel divisors, and every epilogue combination, all cross-validated
// against the plain-NCHW direct convolution ground truth.
func TestQuickWinogradBlockedEquivalence(t *testing.T) {
	f := func(seed uint64, cRaw, oRaw, hRaw, wRaw, icbRaw, ocbRaw uint8, pad, bias, residual, relu bool) bool {
		c := 1 + int(cRaw)%12
		o := 1 + int(oRaw)%12
		h := 5 + int(hRaw)%9
		w := 5 + int(wRaw)%9
		icb := pickDivisor(c, int(icbRaw))
		ocb := pickDivisor(o, int(ocbRaw))
		p := 0
		if pad {
			p = 1
		}
		in, wt := convCase(seed, c, h, w, o, 3, 3)
		attrs := Conv2DAttrs{OutC: o, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: p, PadW: p}
		epi := Epilogue{ReLU: relu}
		if bias {
			epi.Bias = make([]float32, o)
			for i := range epi.Bias {
				epi.Bias[i] = float32(i)*0.3 - 0.8
			}
		}
		if residual {
			oh, ow := attrs.OutSize(h, w)
			res := tensor.New(tensor.NCHW(), 1, o, oh, ow)
			res.FillRandom(seed+7, 1)
			epi.Residual = res
		}
		ref := Conv2DNCHW(in, wt, attrs, epi, nil)
		got := runWinogradBlocked(in, wt, attrs, icb, ocb, epi, nil)
		if !tensor.AllClose(ref, got, 1e-3) {
			t.Logf("c=%d o=%d h=%d w=%d icb=%d ocb=%d pad=%d epi={bias=%v res=%v relu=%v}: max diff %g",
				c, o, h, w, icb, ocb, p, bias, residual, relu, tensor.MaxAbsDiff(ref, got))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// pickDivisor maps a random byte onto a divisor of n.
func pickDivisor(n, raw int) int {
	var divs []int
	for d := 1; d <= n; d++ {
		if n%d == 0 {
			divs = append(divs, d)
		}
	}
	return divs[raw%len(divs)]
}

func TestQuickWinogradEquivalence(t *testing.T) {
	f := func(seed uint64, cRaw, oRaw, hRaw, wRaw uint8, pad bool) bool {
		c := 1 + int(cRaw)%6
		o := 1 + int(oRaw)%6
		h := 5 + int(hRaw)%8
		w := 5 + int(wRaw)%8
		p := 0
		if pad {
			p = 1
		}
		in, wt := convCase(seed, c, h, w, o, 3, 3)
		attrs := Conv2DAttrs{OutC: o, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: p, PadW: p}
		ref := Conv2DNCHW(in, wt, attrs, Epilogue{}, nil)
		got := runWinograd(in, wt, attrs, Epilogue{})
		return tensor.AllClose(ref, got, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
