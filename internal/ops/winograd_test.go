package ops

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
	"repro/internal/threadpool"
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
	if !tensor.BitEqual(serial, par) {
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

// twoPassScatter and twoPassGather are the oracle for
// WinogradWeightTransformNCHWc: the two serial passes it replaced, with their
// own copy of the arithmetic. The scatter stores each kernel's U = G g Gᵀ in
// a (16, O, I) intermediate; the gather packs that into the
// (16, O/ocb, I/icb, icb, ocb) layout.
func twoPassScatter(weight *tensor.Tensor) *tensor.Tensor {
	o, i := weight.Shape[0], weight.Shape[1]
	u := tensor.New(tensor.Flat(), 16, o, i)
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
					u.Data[((r*4+c)*o+oc)*i+ic] = v
				}
			}
		}
	}
	return u
}

func twoPassGather(u *tensor.Tensor, icb, ocb int) *tensor.Tensor {
	o, i := u.Shape[1], u.Shape[2]
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

// TestWinogradWeightTransformMatchesTwoPass pins the one-pass transform to
// the two-pass oracle bit for bit: resnet-18's four Winograd layers (64 to
// 512 channels) at every (ic_bn, oc_bn) in {8, 16, 32, 64}², plus small
// shapes whose block counts are odd, serial and on pools of width 1, 2 and 3
// (whose ranges split the output blocks raggedly).
func TestWinogradWeightTransformMatchesTwoPass(t *testing.T) {
	type geometry struct {
		o, i   int
		blocks [][2]int // (ic_bn, oc_bn)
	}
	var resnet [][2]int
	for _, icb := range []int{8, 16, 32, 64} {
		for _, ocb := range []int{8, 16, 32, 64} {
			resnet = append(resnet, [2]int{icb, ocb})
		}
	}
	geometries := []geometry{
		{64, 64, resnet}, {128, 128, resnet}, {256, 256, resnet}, {512, 512, resnet},
		{24, 40, [][2]int{{8, 8}}}, {9, 15, [][2]int{{5, 3}}}, {7, 5, [][2]int{{1, 7}}},
	}
	pfs := map[string]ParallelFor{"serial": nil}
	for _, width := range []int{1, 2, 3} {
		pool := threadpool.NewPool(width)
		defer pool.Close()
		pfs[fmt.Sprintf("pool%d", width)] = pool.ParallelRange
	}
	for _, g := range geometries {
		wt := tensor.New(tensor.OIHW(), g.o, g.i, 3, 3)
		wt.FillRandom(uint64(g.o+g.i), 1)
		u := twoPassScatter(wt)
		if !tensor.BitEqual(u, WinogradWeightTransform(wt)) {
			t.Fatalf("%dx%d weight: the (16, O, I) transform differs from the oracle", g.o, g.i)
		}
		for _, b := range g.blocks {
			want := twoPassGather(u, b[0], b[1])
			for name, pf := range pfs {
				if got := WinogradWeightTransformNCHWc(wt, b[0], b[1], pf); !tensor.BitEqual(want, got) {
					t.Fatalf("%dx%d weight at (ic_bn %d, oc_bn %d), %s: U differs from the two-pass oracle", g.o, g.i, b[0], b[1], name)
				}
			}
		}
	}
}

func runWinogradBlocked(in, wt *tensor.Tensor, attrs Conv2DAttrs, icb, ocb int, epi Epilogue, scratch *tensor.Tensor) *tensor.Tensor {
	blockedIn := tensor.ToNCHWc(in, icb)
	u := WinogradWeightTransformNCHWc(wt, icb, ocb, nil)
	var blockedEpi Epilogue
	blockedEpi.Bias = epi.Bias
	blockedEpi.ReLU = epi.ReLU
	if epi.Residual != nil {
		blockedEpi.Residual = tensor.ToNCHWc(epi.Residual, ocb)
	}
	out := Conv2DWinogradNCHWcInto(nil, scratch, blockedIn, u, attrs, icb, ocb, blockedEpi, Serial)
	return tensor.FromNCHWc(out)
}

// winogradNCHWcCase is one Winograd-template geometry and blocking.
type winogradNCHWcCase struct {
	name          string
	c, h, w, ocnt int
	pad           int
	icb, ocb      int
}

// winogradNCHWcCases are TestWinogradNCHWcMatchesReference's rows.
var winogradNCHWcCases = []winogradNCHWcCase{
	{"even-pad1-8x8", 8, 8, 8, 16, 1, 8, 8},
	{"even-pad1-16c", 16, 14, 14, 32, 1, 16, 16},
	{"odd-output", 4, 7, 9, 8, 1, 4, 4},
	{"pad0", 8, 10, 10, 8, 0, 4, 8},
	{"block1", 3, 6, 6, 5, 1, 1, 1},
	{"mixed-blocks", 6, 9, 11, 12, 1, 3, 4},
	{"generic-ocb", 10, 8, 8, 10, 1, 5, 10},        // oc_bn not a multiple of 8: rankK's Go body on every CPU
	{"weight-walk-ocb32", 32, 6, 6, 64, 1, 16, 32}, // 64 output channels > 9 tiles: rankK rows are all 9 tiles
}

// run returns the NCHW reference and the Winograd template's output.
func (tc winogradNCHWcCase) run() (ref, got *tensor.Tensor) {
	in, wt := convCase(83, tc.c, tc.h, tc.w, tc.ocnt, 3, 3)
	attrs := Conv2DAttrs{OutC: tc.ocnt, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: tc.pad, PadW: tc.pad}
	return Conv2DNCHW(in, wt, attrs, Epilogue{}, nil), runWinogradBlocked(in, wt, attrs, tc.icb, tc.ocb, Epilogue{}, nil)
}

func TestWinogradNCHWcMatchesReference(t *testing.T) {
	for _, tc := range winogradNCHWcCases {
		t.Run(tc.name, func(t *testing.T) {
			ref, got := tc.run()
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
	u := WinogradWeightTransformNCHWc(wt, 8, 8, nil)
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
		if !tensor.BitEqual(want, got) {
			t.Fatalf("run %d: scratch reuse changed the result", i)
		}
	}
}

// TestWinogradNCHWcTileBlocks pins the tile-blocked product: a range walks
// its tiles in blocks that cross tile-row and batch boundaries, and a range
// shorter than a block gets a shorter block. The output must stay within the
// reference tolerance and bit-identical across pool widths — the partition
// decides block boundaries, and each element still reduces over the input
// channels in one fixed order. At batch 1 most rows have more output
// channels than tiles and take the weight-stationary walk; at batch 3 most
// take the tile-stationary one. The rows also cover the lane-wise transforms:
// the block pairs resnet-18's plan uses; odd output sizes, whose last tile
// column and row store one pixel through the epilogue; pad 0 (interior tiles
// only at the top-left), pad 2 (tiles with two patch rows and columns in the
// padding) and pad 3 on a 1×1 input (tiles whose whole patch is padding);
// and icb 3 / ocb 5, where every microkernel runs its Go body.
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
		{"ic32-oc64-8x8-out", 64, 8, 8, 64, 1, 32, 64},
		{"ic64-oc32-7x5-out", 64, 7, 5, 64, 1, 64, 32},
		{"ic16-oc32-5x7-out-pad0", 32, 7, 9, 32, 0, 16, 32},
		{"ic16-oc16-7x8-out-pad2", 32, 5, 6, 32, 2, 16, 16},
		{"ic16-oc16-5x5-out-pad3", 16, 1, 1, 16, 3, 16, 16},
		{"icb3-ocb5-7x9-out", 6, 7, 9, 10, 1, 3, 5},
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
				u := WinogradWeightTransformNCHWc(wt, tc.icb, tc.ocb, nil)
				epi := Epilogue{Bias: bias, Residual: tensor.ToNCHWc(res, tc.ocb), ReLU: true}
				var first *tensor.Tensor
				for _, p := range []int{1, 2, 3, 5} {
					got := Conv2DWinogradNCHWc(blockedIn, u, attrs, tc.icb, tc.ocb, epi, goPar(p))
					if first == nil {
						first = got
						if d := tensor.MaxAbsDiff(ref, tensor.FromNCHWc(got)); d > 1e-3 {
							t.Fatalf("diverges from the reference by %g", d)
						}
					} else if !tensor.BitEqual(first, got) {
						t.Fatalf("pool width %d is not bit-identical to width 1", p)
					}
				}
			})
		}
	}
}

// TestWinogradNCHWcNoPerTileAllocation pins the per-range buffers to the
// stack at the widest searched blocks, walk by walk: with destination and
// scratch provided, a convolution allocates only its fixed dispatch cost (the
// range closures and the scratch shape). For each walk that cost is the same
// at ic_bn = oc_bn = 64 — where the tile-stationary walk's 16×4×64
// accumulator block, and both walks' 16×64 border patch and 4×64 output tile,
// exactly fill their stack arrays — as at 8, and the same for a larger image
// that the walk rule keeps on that walk. The two walks' costs differ (the
// weight-stationary walk opens two parallel regions, the tile-stationary walk
// one), so they are not compared with each other.
func TestWinogradNCHWcNoPerTileAllocation(t *testing.T) {
	allocs := func(hw, bn int, weightStationary bool) float64 {
		in, wt := convCase(89, 64, hw, hw, 64, 3, 3)
		attrs := Conv2DAttrs{OutC: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
		blockedIn := tensor.ToNCHWc(in, bn)
		if got := winogradWeightStationary(blockedIn.Shape, attrs); got != weightStationary {
			t.Fatalf("%dx%d image with 64 output channels: weight-stationary %v, want %v", hw, hw, got, weightStationary)
		}
		u := WinogradWeightTransformNCHWc(wt, bn, bn, nil)
		scratch := tensor.New(tensor.Flat(), WinogradScratchShape(blockedIn.Shape, attrs)...)
		dst := tensor.New(tensor.NCHWc(bn), 1, 64/bn, hw, hw, bn)
		return testing.AllocsPerRun(5, func() {
			Conv2DWinogradNCHWcInto(dst, scratch, blockedIn, u, attrs, bn, bn, Epilogue{}, Serial)
		})
	}
	for _, walk := range []struct {
		name             string
		small, large     int
		weightStationary bool
	}{
		{"tile-stationary", 16, 40, false}, // 64 and 400 tiles
		{"weight-stationary", 6, 14, true}, // 9 and 49 tiles
	} {
		narrow, wide, big := allocs(walk.small, 8, walk.weightStationary), allocs(walk.small, 64, walk.weightStationary), allocs(walk.large, 64, walk.weightStationary)
		if wide != narrow || big != wide {
			t.Fatalf("%s allocations per convolution: ic_bn = oc_bn = 8 %.0f, 64 %.0f, 64 on a %dx%d image %.0f: a per-range buffer left the stack",
				walk.name, narrow, wide, walk.large, walk.large, big)
		}
	}
}

// TestWinogradWalksAgree runs both walks on the same convolutions, on both
// sides of the walk rule, and requires bit-identical outputs at every pool
// width: each output element reduces over the input channels in ascending
// order on the same rankK body whichever walk computes it. The cases cover
// OutC == tiles (the last tile-stationary size) and OutC == tiles+1 (the
// first weight-stationary one), odd output sizes (partial tiles), batch 2
// (weight-stationary rows that cross images), the bias + residual + ReLU
// epilogue, and oc_bn 8, 16, 64 and 12 (rankK's Go body on every CPU). The
// scratch starts as NaN and the outputs are compared bit by bit, so a walk
// that reads scratch it did not write fails.
func TestWinogradWalksAgree(t *testing.T) {
	cases := []struct {
		name             string
		n, c, h, w, ocnt int
		pad, icb, ocb    int
		weightStationary bool // the rule's choice
	}{
		{"oc-eq-tiles", 1, 16, 8, 8, 16, 1, 8, 8, false},                // 16 tiles
		{"oc-eq-tiles+1-5x9-out", 1, 16, 5, 9, 16, 1, 16, 16, true},     // 15 tiles
		{"batch2-5x5-out-ocb64", 2, 32, 5, 5, 64, 1, 32, 64, true},      // 18 tiles
		{"batch2-5x5-out-pad0", 2, 24, 7, 7, 48, 0, 8, 16, true},        // 18 tiles
		{"batch2-9x9-out", 2, 16, 9, 9, 32, 1, 8, 8, false},             // 50 tiles
		{"ocb12-7x5-out", 1, 12, 7, 5, 24, 1, 4, 12, true},              // 12 tiles
		{"ocb12-7x5-out-oc-eq-tiles", 1, 12, 7, 5, 12, 1, 4, 12, false}, // 12 tiles
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := tensor.New(tensor.NCHW(), tc.n, tc.c, tc.h, tc.w)
			in.FillRandom(90, 1)
			wt := tensor.New(tensor.OIHW(), tc.ocnt, tc.c, 3, 3)
			wt.FillRandom(91, 0.5)
			attrs := Conv2DAttrs{OutC: tc.ocnt, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: tc.pad, PadW: tc.pad}
			oh, ow := attrs.OutSize(tc.h, tc.w)
			bias := make([]float32, tc.ocnt)
			for i := range bias {
				bias[i] = float32(i)*0.05 - 0.3
			}
			res := tensor.New(tensor.NCHW(), tc.n, tc.ocnt, oh, ow)
			res.FillRandom(92, 1)
			ref := Conv2DNCHW(in, wt, attrs, Epilogue{Bias: bias, Residual: res, ReLU: true}, nil)

			blockedIn := tensor.ToNCHWc(in, tc.icb)
			if got := winogradWeightStationary(blockedIn.Shape, attrs); got != tc.weightStationary {
				t.Fatalf("walk rule: weight-stationary %v, want %v", got, tc.weightStationary)
			}
			u := WinogradWeightTransformNCHWc(wt, tc.icb, tc.ocb, nil)
			epi := Epilogue{Bias: bias, Residual: tensor.ToNCHWc(res, tc.ocb), ReLU: true}
			want := Conv2DWinogradNCHWc(blockedIn, u, attrs, tc.icb, tc.ocb, epi, nil)
			if d := tensor.MaxAbsDiff(ref, tensor.FromNCHWc(want)); d > 1e-3 {
				t.Fatalf("diverges from the reference by %g", d)
			}
			for _, ws := range []bool{false, true} {
				walk := winogradTileWalk
				if ws {
					walk = winogradWeightWalk
				}
				for p := 1; p <= 4; p++ {
					shape := winogradScratchShape(blockedIn.Shape, attrs, ws)
					scratch := tensor.New(tensor.Flat(), shape...)
					for i := range scratch.Data {
						scratch.Data[i] = float32(math.NaN())
					}
					got := tensor.New(tensor.NCHWc(tc.ocb), tc.n, tc.ocnt/tc.ocb, oh, ow, tc.ocb)
					walk(got, scratch.Data, blockedIn, u, attrs, tc.icb, tc.ocb, epi, goPar(p))
					for i, v := range got.Data {
						if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
							t.Fatalf("weight-stationary %v at pool width %d: out[%d] = %#x, the rule's walk %#x",
								ws, p, i, math.Float32bits(v), math.Float32bits(want.Data[i]))
						}
					}
				}
			}
		})
	}
}

func TestWinogradNCHWcRejectsBadShapes(t *testing.T) {
	in, wt := convCase(85, 8, 8, 8, 16, 3, 3)
	blockedIn := tensor.ToNCHWc(in, 8)
	u := WinogradWeightTransformNCHWc(wt, 8, 8, nil)
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
	mustPanic(t, func() { WinogradWeightTransformNCHWc(wt, 3, 8, nil) })
	mustPanic(t, func() { WinogradWeightTransformNCHWc(wt, 8, 3, nil) })
	_, wt5 := convCase(86, 8, 8, 8, 16, 5, 5)
	mustPanic(t, func() { WinogradWeightTransformNCHWc(wt5, 8, 8, nil) })
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
