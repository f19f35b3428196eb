package ops

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestRankKAsmMatchesGoBody is the differential test of the numeric
// contract: the assembly body must equal the Go body (the specification) on
// every element — not within a tolerance — across row tails, every oc_bn the
// assembly accepts up to 64, short and long reductions, and the stride-1 and
// stride-2 input pitches the direct template passes.
func TestRankKAsmMatchesGoBody(t *testing.T) {
	if !hasAVX2 {
		t.Skip("assembly body not in use: the CPU lacks AVX2 (or OS YMM support), or the build is not amd64 or has the purego tag")
	}
	rng := rand.New(rand.NewSource(1))
	fill := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = rng.Float32()*2 - 1
		}
		return s
	}
	ks := []int{1, 3, 16, 64, 512}
	if testing.Short() {
		ks = []int{1, 3, 64}
	}
	for ocb := 8; ocb <= 64; ocb += 8 {
		for _, k := range ks {
			for _, strideW := range []int{1, 2} {
				inStride := strideW * k
				for rows := 1; rows <= 32; rows++ {
					in := fill((rows-1)*inStride + k)
					wt := fill(k * ocb)
					acc0 := fill(rows * ocb)
					want := append([]float32(nil), acc0...)
					rankKGo(want, in, wt, rows, k, inStride, ocb)
					got := append([]float32(nil), acc0...)
					rankK(got, in, wt, rows, k, inStride, ocb)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("ocb=%d k=%d inStride=%d rows=%d: acc[%d] = %v, Go body %v",
								ocb, k, inStride, rows, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestRankKRejectsShortSlices pins the safety check in front of the assembly
// body: a call whose last acc, in or wt index is out of range panics in Go
// before any body runs, for an ocb the assembly would take and one it would
// not.
func TestRankKRejectsShortSlices(t *testing.T) {
	const rows, k = 5, 7
	for _, ocb := range []int{16, 12} {
		inStride := 2 * k
		acc := make([]float32, rows*ocb)
		in := make([]float32, (rows-1)*inStride+k)
		wt := make([]float32, k*ocb)
		rankK(acc, in, wt, rows, k, inStride, ocb) // exact lengths are fine
		for _, c := range []struct {
			name string
			call func()
		}{
			{"acc", func() { rankK(acc[:len(acc)-1], in, wt, rows, k, inStride, ocb) }},
			{"in", func() { rankK(acc, in[:len(in)-1], wt, rows, k, inStride, ocb) }},
			{"wt", func() { rankK(acc, in, wt[:len(wt)-1], rows, k, inStride, ocb) }},
			{"negative-stride", func() { rankK(acc, in, wt, rows, k, -1, ocb) }},
		} {
			t.Run(fmt.Sprintf("ocb%d/%s", ocb, c.name), func(t *testing.T) { mustPanic(t, c.call) })
		}
	}
}

// TestLaneMACAsmMatchesGoBody is laneMAC's differential test: the assembly
// body must equal the Go body on every element across row counts up to a
// full reg_n tile plus one, every bn the assembly accepts up to 72 (24, 40,
// 56 and 72 run a 32-lane block and an 8-lane tail), the kernel widths the
// depthwise template passes as taps, and the stride-1 and stride-2 pitches.
func TestLaneMACAsmMatchesGoBody(t *testing.T) {
	if !hasAVX2 {
		t.Skip("assembly body not in use: the CPU lacks AVX2 (or OS YMM support), or the build is not amd64 or has the purego tag")
	}
	rng := rand.New(rand.NewSource(2))
	fill := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = rng.Float32()*2 - 1
		}
		return s
	}
	for bn := 8; bn <= 72; bn += 8 {
		for _, taps := range []int{1, 3, 5, 7} {
			for _, strideW := range []int{1, 2} {
				xStride := strideW * bn
				for rows := 1; rows <= 17; rows++ {
					x := fill((rows-1)*xStride + taps*bn)
					w := fill(taps * bn)
					acc0 := fill(rows * bn)
					want := append([]float32(nil), acc0...)
					laneMACGo(want, x, w, rows, taps, xStride, bn)
					got := append([]float32(nil), acc0...)
					laneMAC(got, x, w, rows, taps, xStride, bn)
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("bn=%d taps=%d xStride=%d rows=%d: acc[%d] = %v, Go body %v",
								bn, taps, xStride, rows, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestEpilogueAsmMatchesGoBody is the epilogue's differential test: for all
// eight bias/residual/ReLU combinations the assembly body must store the Go
// body's bits, on inputs seeded with NaN, ±0, ±Inf and subnormals. A -0 or
// NaN accumulator under ReLU pins the VMAXPS operand order: with the zero
// vector as the second source the clamp would store +0 for both.
func TestEpilogueAsmMatchesGoBody(t *testing.T) {
	if !hasAVX2 {
		t.Skip("assembly body not in use: the CPU lacks AVX2 (or OS YMM support), or the build is not amd64 or has the purego tag")
	}
	// One NaN bit pattern — x86's default NaN, which Inf + -Inf also
	// produces — so the result's payload cannot depend on which addend the
	// Go compiler puts first.
	nan := math.Float32frombits(0xffc00000)
	specials := []float32{nan, 0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(1), -math.Float32frombits(0x007fffff), math.SmallestNonzeroFloat32}
	rng := rand.New(rand.NewSource(3))
	fill := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			if rng.Intn(3) == 0 {
				s[i] = specials[rng.Intn(len(specials))]
			} else {
				s[i] = rng.Float32()*2 - 1
			}
		}
		return s
	}
	for mask := 0; mask < 8; mask++ {
		withBias, withRes, relu := mask&1 != 0, mask&2 != 0, mask&4 != 0
		for ocb := 8; ocb <= 72; ocb += 8 {
			for rows := 1; rows <= 5; rows++ {
				acc := fill(rows * ocb)
				var bias, res []float32
				if withBias {
					bias = fill(ocb)
				}
				if withRes {
					res = fill(rows * ocb)
				}
				want := make([]float32, rows*ocb)
				epilogueGo(want, acc, bias, res, rows, ocb, relu)
				got := make([]float32, rows*ocb)
				epilogue(got, acc, bias, res, rows, ocb, relu)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("bias=%v res=%v relu=%v ocb=%d rows=%d: dst[%d] = %#x, Go body %#x (acc %v)",
							withBias, withRes, relu, ocb, rows, i, math.Float32bits(got[i]), math.Float32bits(want[i]), acc[i])
					}
				}
			}
		}
	}
}

// TestLaneMACAndEpilogueRejectShortSlices pins the safety check in front of
// the other two assembly bodies: a call whose last index into any slice is
// out of range panics before any body has written its output, for a block
// size the assembly would take and one it would not.
func TestLaneMACAndEpilogueRejectShortSlices(t *testing.T) {
	const rows, taps = 5, 3
	for _, bn := range []int{16, 12} {
		xStride := 2 * bn
		acc := make([]float32, rows*bn)
		x := make([]float32, (rows-1)*xStride+taps*bn)
		w := make([]float32, taps*bn)
		dst := make([]float32, rows*bn)
		bias := make([]float32, bn)
		for i := range x {
			x[i] = 1
		}
		for i := range w {
			w[i] = 1
		}
		// Exact lengths are fine.
		laneMAC(acc, x, w, rows, taps, xStride, bn)
		epilogue(dst, acc, bias, acc, rows, bn, true)
		for _, c := range []struct {
			name string
			out  []float32
			call func()
		}{
			{"laneMAC/acc", acc, func() { laneMAC(acc[:len(acc)-1], x, w, rows, taps, xStride, bn) }},
			{"laneMAC/x", acc, func() { laneMAC(acc, x[:len(x)-1], w, rows, taps, xStride, bn) }},
			{"laneMAC/w", acc, func() { laneMAC(acc, x, w[:len(w)-1], rows, taps, xStride, bn) }},
			{"laneMAC/negative-stride", acc, func() { laneMAC(acc, x, w, rows, taps, -1, bn) }},
			{"epilogue/dst", dst, func() { epilogue(dst[:len(dst)-1], acc, bias, nil, rows, bn, true) }},
			{"epilogue/acc", dst, func() { epilogue(dst, acc[:len(acc)-1], nil, nil, rows, bn, true) }},
			{"epilogue/bias", dst, func() { epilogue(dst, acc, bias[:bn-1], nil, rows, bn, true) }},
			{"epilogue/res", dst, func() { epilogue(dst, acc, nil, acc[:len(acc)-1], rows, bn, false) }},
		} {
			t.Run(fmt.Sprintf("bn%d/%s", bn, c.name), func(t *testing.T) {
				for i := range c.out {
					c.out[i] = -7
				}
				mustPanic(t, c.call)
				for i, v := range c.out {
					if v != -7 {
						t.Fatalf("output[%d] = %v: a body ran before the check", i, v)
					}
				}
			})
		}
	}
}

// transformFill returns n floats in which every lane's values (the elements
// i with lane(i) equal) are finite — random, ±0 and subnormals — except for
// one of two kinds of lane: one NaN with a payload no other lane uses, or a
// few ±Inf. A lane never holds two NaNs of different payloads (an Inf - Inf
// makes x86's default NaN, so a NaN lane holds no Inf): then a sum of two NaN
// operands always carries one payload, and the result's bits cannot depend
// on which addend the Go compiler puts first.
func transformFill(rng *rand.Rand, n int, lane func(i int) int) []float32 {
	finite := []float32{0, float32(math.Copysign(0, -1)), math.Float32frombits(1), -math.Float32frombits(0x007fffff),
		math.SmallestNonzeroFloat32}
	s := make([]float32, n)
	for i := range s {
		if rng.Intn(4) == 0 {
			s[i] = finite[rng.Intn(len(finite))]
		} else {
			s[i] = rng.Float32()*2 - 1
		}
	}
	byLane := map[int][]int{}
	for i := range s {
		byLane[lane(i)] = append(byLane[lane(i)], i)
	}
	payload := uint32(1)
	for l := 0; l < len(byLane); l++ {
		idx := byLane[l]
		switch rng.Intn(3) {
		case 0:
			// Quiet and signalling NaNs of either sign, distinct payloads.
			bits := 0x7f800000 | payload<<3 | uint32(rng.Intn(2))<<22 | uint32(rng.Intn(2))<<31
			s[idx[rng.Intn(len(idx))]] = math.Float32frombits(bits)
			payload++
		case 1:
			for k := 0; k < 3; k++ {
				s[idx[rng.Intn(len(idx))]] = float32(math.Inf(1 - 2*rng.Intn(2)))
			}
		}
	}
	return s
}

// TestWinogradTransformsAsmMatchGoBody is the differential test of the two
// Winograd transforms: the assembly bodies must store the Go bodies' bits on
// every element — including NaN payloads, ±0, ±Inf and subnormals — at the
// block sizes the schedule space emits, at packed and padded strides, and
// leave every element between the strided outputs untouched.
func TestWinogradTransformsAsmMatchGoBody(t *testing.T) {
	if !hasAVX2 {
		t.Skip("assembly body not in use: the CPU lacks AVX2 (or OS YMM support), or the build is not amd64 or has the purego tag")
	}
	rng := rand.New(rand.NewSource(4))
	same := func(t *testing.T, what string, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s[%d] = %#x, Go body %#x", what, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
	for _, bn := range []int{8, 16, 24, 32, 64} {
		for _, pitch := range []int{0, 8, 3 * bn} {
			for trial := 0; trial < 20; trial++ {
				name := fmt.Sprintf("bn%d/pitch+%d/%d", bn, pitch, trial)
				// winogradIn: patch rows dStride apart, V components vStride apart.
				dStride, vStride := 4*bn+pitch, bn+pitch
				d := transformFill(rng, 3*dStride+4*bn, func(i int) int {
					if i%dStride >= 4*bn {
						return bn // the gap between rows: its own "lane"
					}
					return i % dStride % bn
				})
				want := make([]float32, 15*vStride+bn)
				for i := range want {
					want[i] = -7
				}
				got := append([]float32(nil), want...)
				winogradInGo(want, d, dStride, vStride, bn)
				winogradIn(got, d, dStride, vStride, bn)
				same(t, name+" winogradIn v", got, want)

				// winogradOut: M components mStride apart.
				mStride := bn + pitch
				m := transformFill(rng, 15*mStride+bn, func(i int) int { return min(i%mStride, bn) })
				wantY := make([]float32, 4*bn)
				gotY := make([]float32, 4*bn)
				winogradOutGo(wantY, m, mStride, bn)
				winogradOut(gotY, m, mStride, bn)
				same(t, name+" winogradOut y", gotY, wantY)
			}
		}
	}
}

// TestLaneMaxAsmMatchesGoBody is laneMax's differential test. Every ordered
// pair of special values meets in some lane — NaNs of distinct payloads
// (quiet and signalling, both signs), ±0, ±Inf, subnormals — so the VMAXPS
// operand order is pinned: with d as the first source, a NaN in v would
// replace d, and -0 would replace +0.
func TestLaneMaxAsmMatchesGoBody(t *testing.T) {
	if !hasAVX2 {
		t.Skip("assembly body not in use: the CPU lacks AVX2 (or OS YMM support), or the build is not amd64 or has the purego tag")
	}
	specials := []float32{
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00002), math.Float32frombits(0x7f800003),
		0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(1), -math.Float32frombits(0x007fffff), 1.5, -2.25,
	}
	var pairs [][2]float32
	for _, a := range specials {
		for _, b := range specials {
			pairs = append(pairs, [2]float32{a, b})
		}
	}
	for _, bn := range []int{8, 16, 24, 32, 64} {
		for off := 0; off < len(pairs); off += bn {
			d := make([]float32, bn)
			v := make([]float32, bn)
			for i := range d {
				p := pairs[(off+i)%len(pairs)]
				d[i], v[i] = p[0], p[1]
			}
			want := append([]float32(nil), d...)
			laneMaxGo(want, v, bn)
			got := append([]float32(nil), d...)
			laneMax(got, v, bn)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("bn=%d: max(d=%#x, v=%#x) = %#x, Go body %#x", bn,
						math.Float32bits(d[i]), math.Float32bits(v[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}

// TestWinogradTransformsAndLaneMaxRejectShortSlices pins the safety check in
// front of the three newer assembly bodies, as
// TestLaneMACAndEpilogueRejectShortSlices does for the older two.
func TestWinogradTransformsAndLaneMaxRejectShortSlices(t *testing.T) {
	for _, bn := range []int{16, 12} {
		dStride, vStride := 5*bn, 2*bn
		d := make([]float32, 3*dStride+4*bn)
		v := make([]float32, 15*vStride+bn)
		m := make([]float32, 15*vStride+bn)
		y := make([]float32, 4*bn)
		mx := make([]float32, bn)
		// Exact lengths are fine.
		winogradIn(v, d, dStride, vStride, bn)
		winogradOut(y, m, vStride, bn)
		laneMax(mx, d, bn)
		for _, c := range []struct {
			name string
			out  []float32
			call func()
		}{
			{"winogradIn/v", v, func() { winogradIn(v[:len(v)-1], d, dStride, vStride, bn) }},
			{"winogradIn/d", v, func() { winogradIn(v, d[:len(d)-1], dStride, vStride, bn) }},
			{"winogradIn/negative-dStride", v, func() { winogradIn(v, d, -1, vStride, bn) }},
			{"winogradIn/negative-vStride", v, func() { winogradIn(v, d, dStride, -1, bn) }},
			{"winogradOut/y", y, func() { winogradOut(y[:len(y)-1], m, vStride, bn) }},
			{"winogradOut/m", y, func() { winogradOut(y, m[:len(m)-1], vStride, bn) }},
			{"winogradOut/negative-stride", y, func() { winogradOut(y, m, -1, bn) }},
			{"laneMax/d", mx, func() { laneMax(mx[:bn-1], d, bn) }},
			{"laneMax/v", mx, func() { laneMax(mx, d[:bn-1], bn) }},
		} {
			t.Run(fmt.Sprintf("bn%d/%s", bn, c.name), func(t *testing.T) {
				for i := range c.out {
					c.out[i] = -7
				}
				mustPanic(t, c.call)
				for i, x := range c.out {
					if x != -7 {
						t.Fatalf("output[%d] = %v: a body ran before the check", i, x)
					}
				}
			})
		}
	}
}
