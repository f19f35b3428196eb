package ops

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// poolCase returns a random NCHW input in which every seventh element is one
// of the given specials.
func poolCase(seed uint64, n, c, h, w int, specials []float32) *tensor.Tensor {
	in := tensor.New(tensor.NCHW(), n, c, h, w)
	in.FillRandom(seed, 1)
	for i := 0; i < len(in.Data); i += 7 {
		in.Data[i] = specials[(i/7)%len(specials)]
	}
	return in
}

// samePoolBits fails unless the blocked result, unpacked, has want's bits.
func samePoolBits(t *testing.T, want, blocked *tensor.Tensor) {
	t.Helper()
	got := tensor.FromNCHWc(blocked)
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("out[%d] = %#x, NCHW pooling %#x", i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
		}
	}
}

var poolGeometries = []struct {
	name  string
	attrs PoolAttrs
}{
	{"3x3-s2-p1", PoolAttrs{KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}},
	{"3x3-s1-p1", PoolAttrs{KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
	{"2x2-s2-p0", PoolAttrs{KH: 2, KW: 2, StrideH: 2, StrideW: 2}},
	// Pad 2 on a 2x2 window: the corner windows lie entirely in the padding.
	{"2x2-s1-p2", PoolAttrs{KH: 2, KW: 2, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}},
}

// TestMaxPoolNCHWcMatchesNCHWBits pins blocked max pooling to poolWindow bit
// for bit on the blocked copy of the same input: NaNs of distinct payloads
// never replace the running maximum (and a NaN first in its window leaves
// -Inf to be beaten), of +0 and -0 the first in (r, s) order wins, and a
// window entirely in the padding writes +0 — for block sizes that run the
// assembly body and one that runs the Go body.
func TestMaxPoolNCHWcMatchesNCHWBits(t *testing.T) {
	specials := []float32{math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00002), 0,
		float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), math.Float32frombits(1)}
	for _, bn := range []int{8, 32, 64, 3} {
		for _, g := range poolGeometries {
			t.Run(fmt.Sprintf("bn%d/%s", bn, g.name), func(t *testing.T) {
				in := poolCase(30, 2, 192, 9, 8, specials)
				attrs := g.attrs
				attrs.Kind = MaxPool
				blocked := Pool2D(tensor.ToNCHWc(in, bn), attrs, nil)
				samePoolBits(t, Pool2D(in, attrs, nil), blocked)
				if attrs.PadH >= attrs.KH {
					// The top-left window of every plane is all padding.
					got := tensor.FromNCHWc(blocked)
					for i := 0; i < len(got.Data); i += got.Shape[2] * got.Shape[3] {
						if math.Float32bits(got.Data[i]) != 0 {
							t.Fatalf("all-padding window at out[%d] = %#x, want +0", i, math.Float32bits(got.Data[i]))
						}
					}
				}
			})
		}
	}
	// Handwritten windows: a NaN never wins and never leaves; -0 before +0
	// keeps -0.
	nan := math.Float32frombits(0x7fc00005)
	negZero := float32(math.Copysign(0, -1))
	in := tensor.FromData(tensor.NCHW(), []float32{nan, -3, negZero, 0}, 1, 1, 1, 4)
	out := Pool2D(tensor.ToNCHWc(in, 1), PoolAttrs{Kind: MaxPool, KH: 1, KW: 2, StrideH: 1, StrideW: 2}, nil)
	if got := out.Data; got[0] != -3 || math.Float32bits(got[1]) != math.Float32bits(negZero) {
		t.Fatalf("max(NaN, -3), max(-0, +0) = %v, %#x; want -3, -0", got[0], math.Float32bits(got[1]))
	}
}

// TestAvgPoolNCHWcMatchesNCHWBits pins blocked average pooling to poolWindow
// bit for bit, with and without CountIncludePad. The specials hold one NaN
// bit pattern (x86's default, which Inf + -Inf also produces), so a sum's
// payload cannot depend on which addend the Go compiler puts first.
func TestAvgPoolNCHWcMatchesNCHWBits(t *testing.T) {
	specials := []float32{math.Float32frombits(0xffc00000), 0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)), math.Float32frombits(1)}
	for _, includePad := range []bool{false, true} {
		for _, bn := range []int{8, 32, 3} {
			for _, g := range poolGeometries {
				t.Run(fmt.Sprintf("includePad=%v/bn%d/%s", includePad, bn, g.name), func(t *testing.T) {
					in := poolCase(31, 2, 96, 9, 8, specials)
					attrs := g.attrs
					attrs.Kind, attrs.CountIncludePad = AvgPool, includePad
					samePoolBits(t, Pool2D(in, attrs, nil), Pool2D(tensor.ToNCHWc(in, bn), attrs, nil))
				})
			}
		}
	}
	// A 2x2 image of ones under a 3x3/s1/p1 window: every window holds all
	// four pixels, so the mean is 1 without padding in the count and 4/9
	// with it.
	ones := tensor.FromData(tensor.NCHW(), []float32{1, 1, 1, 1}, 1, 1, 2, 2)
	attrs := PoolAttrs{Kind: AvgPool, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	for _, c := range []struct {
		includePad bool
		want       float32
	}{{false, 1}, {true, float32(4) / 9}} {
		attrs.CountIncludePad = c.includePad
		for i, v := range Pool2D(tensor.ToNCHWc(ones, 1), attrs, nil).Data {
			if v != c.want {
				t.Fatalf("CountIncludePad=%v: out[%d] = %v, want %v", c.includePad, i, v, c.want)
			}
		}
	}
}

// TestPoolNCHWcParallelMatchesSerial: each unit writes its own output block,
// so the pool width cannot change a bit.
func TestPoolNCHWcParallelMatchesSerial(t *testing.T) {
	in := tensor.ToNCHWc(poolCase(32, 3, 64, 11, 10, []float32{float32(math.Copysign(0, -1))}), 16)
	for _, kind := range []PoolKind{MaxPool, AvgPool} {
		attrs := PoolAttrs{Kind: kind, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
		serial := Pool2D(in, attrs, Serial)
		par := Pool2D(in, attrs, goPar(3))
		for i := range serial.Data {
			if math.Float32bits(serial.Data[i]) != math.Float32bits(par.Data[i]) {
				t.Fatalf("kind %d: out[%d] = %#x under goPar(3), %#x serial", kind, i,
					math.Float32bits(par.Data[i]), math.Float32bits(serial.Data[i]))
			}
		}
	}
}

// TestPool2DIntoNoPerWindowAllocation: with a destination provided, blocked
// pooling allocates only its fixed dispatch cost (the range closure) — the
// same for a 4× larger image and for the widest block as for the narrowest.
func TestPool2DIntoNoPerWindowAllocation(t *testing.T) {
	allocs := func(hw, bn int, kind PoolKind) float64 {
		in := tensor.New(tensor.NCHW(), 1, 64, hw, hw)
		in.FillRandom(33, 1)
		blocked := tensor.ToNCHWc(in, bn)
		attrs := PoolAttrs{Kind: kind, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
		oh, ow := attrs.OutSize(hw, hw)
		dst := tensor.New(tensor.NCHWc(bn), 1, 64/bn, oh, ow, bn)
		return testing.AllocsPerRun(5, func() { Pool2DInto(dst, blocked, attrs, Serial) })
	}
	for _, kind := range []PoolKind{MaxPool, AvgPool} {
		narrow, wide, big := allocs(10, 8, kind), allocs(10, 64, kind), allocs(40, 64, kind)
		if wide != narrow || big != wide || big > 3 {
			t.Fatalf("kind %d: allocations per pooling: bn 8 %.0f, bn 64 %.0f, bn 64 on a 4x larger image %.0f",
				kind, narrow, wide, big)
		}
	}
}
