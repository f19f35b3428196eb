package ops

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// fma32 is the test oracle for a float32 fused multiply-add: x·y + z rounded
// once, to nearest even. The float64 product of two float32s is exact (24+24
// bits) and the float64 sum rounds once; converting that sum to float32
// rounds a second time, which errs only when the float64 sum lands exactly on
// a float32 midpoint that the exact sum is not on. TwoSum gives the exact
// error e of the float64 add, and in that case the sum is moved one float64
// ulp towards e before the conversion. x, y and z must be finite.
func fma32(x, y, z float32) float32 {
	p, c := float64(x)*float64(y), float64(z)
	s := p + c
	bv := s - p
	e := (p - (s - bv)) + (c - bv)
	if e != 0 && isFloat32Midpoint(s) {
		s = math.Nextafter(s, math.Copysign(math.Inf(1), e))
	}
	return float32(s)
}

// isFloat32Midpoint reports whether the finite s lies exactly halfway between
// two adjacent float32 values, 2¹²⁸ counting as the one above the largest.
func isFloat32Midpoint(s float64) bool {
	if s == 0 {
		return false
	}
	// |s| is in [2^(exp-1), 2^exp): half a float32 ulp there is 2^(exp-25),
	// or 2^-150 among the float32 subnormals.
	_, exp := math.Frexp(s)
	m := s / math.Ldexp(1, max(exp-25, -150))
	return m == math.Trunc(m) && math.Mod(m, 2) != 0
}

// fmaBig is fma32's reference: the exact x·y + z in math/big, rounded once to
// the nearest float32 (ties to even).
func fmaBig(x, y, z float32) float32 {
	const prec = 2000 // far more than the 554 bits the exponents can span
	f := func(v float32) *big.Float { return new(big.Float).SetPrec(prec).SetFloat64(float64(v)) }
	r := new(big.Float).SetPrec(prec).Mul(f(x), f(y))
	r.Add(r, f(z))
	v, _ := r.Float32()
	return v
}

// TestFMA32MatchesBigFloat pins the oracle TestRankKAsmMatchesGoBody holds
// the assembly to: fma32 must equal the exactly computed, once-rounded
// x·y + z bit for bit on random inputs across the float32 range, near
// cancellations, subnormal results, and inputs crafted so the float64 sum
// lands on a float32 midpoint. The naive float32(math.FMA(x, y, z)) must
// fail on some of the crafted inputs, or they test nothing.
func TestFMA32MatchesBigFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 100000
	if testing.Short() {
		n = 10000
	}
	// pow2 returns ±2^e·(1 + f) as a float32; the caller keeps it exact.
	pow2 := func(e int, f float64) float32 { return float32(math.Ldexp(1+f, e)) * float32(1-2*rng.Intn(2)) }
	finite := func() float32 {
		for {
			if v := math.Float32frombits(rng.Uint32()); !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
				return v
			}
		}
	}
	check := func(x, y, z float32) {
		t.Helper()
		if got, want := fma32(x, y, z), fmaBig(x, y, z); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("fma32(%g, %g, %g) = %g (%#x), exact %g (%#x)", x, y, z, got, math.Float32bits(got), want, math.Float32bits(want))
		}
	}
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0: // anywhere in the float32 range, overflow and zeros included
			check(finite(), finite(), finite())
		case 1: // moderate magnitudes
			check(pow2(rng.Intn(40)-20, rng.Float64()), pow2(rng.Intn(40)-20, rng.Float64()), pow2(rng.Intn(40)-20, rng.Float64()))
		case 2: // z cancels most of x·y
			x, y := pow2(rng.Intn(60)-30, rng.Float64()), pow2(rng.Intn(60)-30, rng.Float64())
			z := -x * y
			if rng.Intn(2) == 0 {
				z = math.Nextafter32(z, float32(math.Inf(1-2*rng.Intn(2))))
			}
			check(x, y, z)
		case 3: // subnormal and underflowing results
			x, y := pow2(-rng.Intn(30)-60, rng.Float64()), pow2(-rng.Intn(30)-60, rng.Float64())
			check(x, y, math.Float32frombits(rng.Uint32()&0x807fffff))
		}
	}
	// x·y = ±h·(1 - t²·2^-2j) for h half an ulp of z: the float64 sum rounds
	// onto the midpoint z ± h while the exact sum lies just inside it.
	naiveWrong := 0
	for i := 0; i < n/2; i++ {
		z := pow2(rng.Intn(200)-100, float64(rng.Intn(1<<23))/(1<<23))
		if i%8 == 0 {
			z = math.Float32frombits(rng.Uint32() & 0x807fffff) // subnormal
		}
		_, exp := math.Frexp(float64(z))
		he := max(exp-25, -150) // h = 2^he
		j := 16 + rng.Intn(8)
		f := float64(1+rng.Intn(1<<(j-16))) / float64(int(1)<<j)
		x := pow2(he/2, f)
		y := pow2(he-he/2, -f)
		check(x, y, z)
		if float32(math.FMA(float64(x), float64(y), float64(z))) != fmaBig(x, y, z) {
			naiveWrong++
		}
	}
	if naiveWrong == 0 {
		t.Fatal("no crafted input defeats the naive float32(math.FMA(...)): the midpoint cases are not reached")
	}
}

// rankKFused is the fused specification of rankK's assembly body: rankKGo
// with each step one fma32.
func rankKFused(acc, in, wt []float32, rows, k, inStride, ocb int) {
	for r := 0; r < rows; r++ {
		a := acc[r*ocb : r*ocb+ocb]
		for kk, iv := range in[r*inStride : r*inStride+k] {
			w := wt[kk*ocb:][:len(a)]
			for oi := range a {
				a[oi] = fma32(iv, w[oi], a[oi])
			}
		}
	}
}

// TestRankKAsmMatchesGoBody is the differential test of rankK's numeric
// contract: each assembly body, called directly, must equal rankKFused, the
// once-rounded fused specification, on every element — not within a
// tolerance — across row tails (every row block of both bodies), every oc_bn
// the body accepts up to 64, short and long reductions, and the stride-1 and
// stride-2 input pitches the direct template passes. rankKGo, the non-fused
// portable body, must stay within 2·γ(k+1)·(|acc| + Σ|in·wt|) of it per
// element. On a CPU that offers both bodies rankK reaches only the ZMM one
// for oc_bn%16 == 0, so the test calls them by name.
func TestRankKAsmMatchesGoBody(t *testing.T) {
	for _, body := range []struct {
		name    string
		ok      bool
		skip    string
		ocbStep int
		run     func(acc, in, wt *float32, rows, k, inStride, ocb int)
	}{
		{"avx2", hasFMA, "rankKAVX2 not in use: the CPU lacks AVX2 or FMA (or OS YMM support), or the build is not amd64 or has the purego tag",
			8, rankKAVX2},
		{"avx512", hasAVX512, "rankKAVX512 not in use: the CPU lacks AVX-512F (or OS opmask and ZMM support), or the build is not amd64 or has the purego tag",
			16, rankKAVX512},
	} {
		t.Run(body.name, func(t *testing.T) {
			if !body.ok {
				t.Skip(body.skip)
			}
			rng := rand.New(rand.NewSource(1))
			fill := func(n int) []float32 {
				s := make([]float32, n)
				for i := range s {
					s[i] = rng.Float32()*2 - 1
				}
				return s
			}
			const u = 1.0 / (1 << 24)
			gamma := func(n int) float64 { return float64(n) * u / (1 - float64(n)*u) }
			ks := []int{1, 3, 16, 64, 512}
			if testing.Short() {
				ks = []int{1, 3, 64}
			}
			for ocb := body.ocbStep; ocb <= 64; ocb += body.ocbStep {
				for _, k := range ks {
					for _, strideW := range []int{1, 2} {
						inStride := strideW * k
						for rows := 1; rows <= 32; rows++ {
							in := fill((rows-1)*inStride + k)
							wt := fill(k * ocb)
							acc0 := fill(rows * ocb)
							want := append([]float32(nil), acc0...)
							rankKFused(want, in, wt, rows, k, inStride, ocb)
							got := append([]float32(nil), acc0...)
							body.run(&got[0], &in[0], &wt[0], rows, k, inStride, ocb)
							goBody := append([]float32(nil), acc0...)
							rankKGo(goBody, in, wt, rows, k, inStride, ocb)
							for i := range want {
								if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
									t.Fatalf("ocb=%d k=%d inStride=%d rows=%d: acc[%d] = %v, fused specification %v",
										ocb, k, inStride, rows, i, got[i], want[i])
								}
								r, o := i/ocb, i%ocb
								mag := math.Abs(float64(acc0[i]))
								for kk := 0; kk < k; kk++ {
									mag += math.Abs(float64(in[r*inStride+kk]) * float64(wt[kk*ocb+o]))
								}
								if d, bound := math.Abs(float64(goBody[i])-float64(got[i])), 2*gamma(k+1)*mag; d > bound {
									t.Fatalf("ocb=%d k=%d inStride=%d rows=%d: acc[%d] Go body %v is %g from the assembly's %v, bound %g",
										ocb, k, inStride, rows, i, goBody[i], d, got[i], bound)
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestDetectRequiresAVX2AndFMA pins the dispatch gates: every assembly body
// needs AVX, AVX2, OSXSAVE and XCR0's XMM and YMM bits; rankK's AVX2 body
// also needs FMA, and FMA alone enables nothing; rankK's ZMM body needs all
// of that, AVX-512F and XCR0's opmask and ZMM bits, and AVX-512F or the ZMM
// state alone enables it nowhere.
func TestDetectRequiresAVX2AndFMA(t *testing.T) {
	const ecx = cpuidOSXSAVE | cpuidAVX | cpuidFMA
	const ebx = cpuidAVX2 | cpuidAVX512F
	for _, c := range []struct {
		name              string
		ecx1, ebx7, xcr0  uint32
		avx2, fma, avx512 bool
	}{
		{"avx2+fma", ecx, cpuidAVX2, xcr0YMM, true, true, false},
		{"avx2+fma, zmm state too", ecx, cpuidAVX2, 0xe7, true, true, false},
		{"avx2 without fma", ecx &^ cpuidFMA, cpuidAVX2, xcr0YMM, true, false, false},
		{"fma without avx2", ecx, 0, xcr0YMM, false, false, false},
		{"no avx", ecx &^ cpuidAVX, cpuidAVX2, xcr0YMM, false, false, false},
		{"no osxsave", ecx &^ cpuidOSXSAVE, cpuidAVX2, xcr0YMM, false, false, false},
		{"os saves xmm only", ecx, cpuidAVX2, 2, false, false, false},
		{"os saves ymm only", ecx, cpuidAVX2, 4, false, false, false},
		{"avx512f", ecx, ebx, 0xe7, true, true, true},
		{"avx512f, exactly the zmm bits", ecx, ebx, xcr0ZMM, true, true, true},
		{"avx512f, os saves ymm only", ecx, ebx, xcr0YMM, true, true, false},
		{"avx512f, os saves no opmask", ecx, ebx, 0xe7 &^ 0x20, true, true, false},
		{"avx512f, os saves no upper zmm0-15", ecx, ebx, 0xe7 &^ 0x40, true, true, false},
		{"avx512f, os saves no zmm16-31", ecx, ebx, 0xe7 &^ 0x80, true, true, false},
		{"avx512f without fma", ecx &^ cpuidFMA, ebx, 0xe7, true, false, false},
		{"avx512f without avx2", ecx, cpuidAVX512F, 0xe7, false, false, false},
		{"avx512f without osxsave", ecx &^ cpuidOSXSAVE, ebx, 0xe7, false, false, false},
		{"nothing", 0, 0, 0, false, false, false},
	} {
		if avx2, fma, avx512 := detect(c.ecx1, c.ebx7, c.xcr0); avx2 != c.avx2 || fma != c.fma || avx512 != c.avx512 {
			t.Errorf("%s: detect = (avx2 %v, fma %v, avx512 %v), want (%v, %v, %v)", c.name, avx2, fma, avx512, c.avx2, c.fma, c.avx512)
		}
	}
}

// BenchmarkPeak measures the single-core arithmetic ceiling that the kernel
// benchmarks' GFLOP/s are read against: 12 independent multiply-add chains
// as YMM VMULPS+VADDPS pairs (laneWindow's AVX2 instructions), as YMM
// VFMADD231PS (rankK's AVX2 body) and as ZMM VFMADD231PS (its AVX-512 body).
// zmm-fma against ymm-fma shows whether 512-bit work downclocks the core.
func BenchmarkPeak(b *testing.B) {
	const iters = 1 << 16
	for _, c := range []struct {
		name  string
		ok    bool
		run   func(n int)
		flops float64 // per iteration
	}{
		{"ymm-mul+add", hasAVX2, peakMulAddAVX2, 192},
		{"ymm-fma", hasFMA, peakFMAAVX2, 192},
		{"zmm-fma", hasAVX512, peakFMAAVX512, 384},
	} {
		b.Run(c.name, func(b *testing.B) {
			if !c.ok {
				b.Skip("probe not built or not supported by this CPU")
			}
			for i := 0; i < b.N; i++ {
				c.run(iters)
			}
			b.ReportMetric(c.flops*iters*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// TestRankKRejectsShortSlices pins the safety check in front of the assembly
// bodies: a call whose last acc, in or wt index is out of range panics in Go
// before any body runs, for ocb values the ZMM body would take (16 and 32,
// its 16- and 32-lane columns), one only the AVX2 body would take (8) and one
// neither would (12).
func TestRankKRejectsShortSlices(t *testing.T) {
	const rows, k = 5, 7
	for _, ocb := range []int{16, 32, 8, 12} {
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

// TestLaneWindowAsmMatchesGoBody is laneWindow's differential test: the
// assembly body must store laneWindowGo's bits on every element across run
// lengths through both position blocks (cols 1..17), kernel rows 0..5 (0 for
// a window wholly in the padding), taps 1..5, the stride-1 and stride-2 input
// pitches, every bn the body accepts up to 64 and all eight
// bias/residual/ReLU combinations, on inputs seeded with NaN, ±0, ±Inf and
// subnormals, and leave dst beyond the run untouched.
func TestLaneWindowAsmMatchesGoBody(t *testing.T) {
	if !hasAVX2 {
		t.Skip("assembly body not in use: the CPU lacks AVX2 (or OS YMM support), or the build is not amd64 or has the purego tag")
	}
	// One NaN bit pattern, x86's default NaN (which Inf·0 and
	// Inf - Inf also produce), so no result's payload depends on
	// operand order.
	nan := math.Float32frombits(0xffc00000)
	specials := []float32{nan, 0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(1), -math.Float32frombits(0x007fffff)}
	rng := rand.New(rand.NewSource(2))
	fill := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			if rng.Intn(64) == 0 {
				s[i] = specials[rng.Intn(len(specials))]
			} else {
				s[i] = rng.Float32()*2 - 1
			}
		}
		return s
	}
	call := 0
	for bn := 8; bn <= 64; bn += 8 {
		for taps := 1; taps <= 5; taps++ {
			for rows := 0; rows <= 5; rows++ {
				for _, strideW := range []int{1, 2} {
					for cols := 1; cols <= 17; cols++ {
						xStride := strideW * bn
						// An image row wider than the run and a kernel
						// row wider than the taps, as clipping leaves.
						xPitch, wPitch := (cols-1)*xStride+(taps+2)*bn, (taps+1)*bn
						x := fill(max(rows, 1) * xPitch)
						w := fill(max(rows, 1) * wPitch)
						var bias, res []float32
						mask := call % 8
						call++
						if mask&1 != 0 {
							bias = fill(bn)
						}
						if mask&2 != 0 {
							res = fill(cols * bn)
						}
						relu := mask&4 != 0
						want := fill((cols + 1) * bn)
						got := append([]float32(nil), want...)
						laneWindowGo(want, x, w, bias, res, cols, rows, taps, xStride, xPitch, wPitch, bn, relu)
						var bp, rp *float32
						if bias != nil {
							bp = &bias[0]
						}
						if res != nil {
							rp = &res[0]
						}
						laneWindowAVX2(&got[0], &x[0], &w[0], bp, rp, cols, rows, taps, xStride, xPitch, wPitch, bn, relu)
						for i := range want {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("bn=%d taps=%d rows=%d stride=%d cols=%d bias=%v res=%v relu=%v: dst[%d] = %#x, Go body %#x",
									bn, taps, rows, strideW, cols, bias != nil, res != nil, relu, i,
									math.Float32bits(got[i]), math.Float32bits(want[i]))
							}
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
// the laneWindow and epilogue assembly bodies: a call whose last index into
// any slice is out of range, or whose pitch is negative, panics before any
// body has written its output, for a block size the assembly bodies would
// take (16) and one they would not (12).
func TestLaneMACAndEpilogueRejectShortSlices(t *testing.T) {
	const cols, rows, taps = 5, 3, 2
	for _, bn := range []int{16, 12} {
		xStride, xPitch, wPitch := 2*bn, 12*bn, 3*bn
		dst := make([]float32, cols*bn)
		x := make([]float32, (rows-1)*xPitch+(cols-1)*xStride+taps*bn)
		w := make([]float32, (rows-1)*wPitch+taps*bn)
		acc := make([]float32, cols*bn)
		bias := make([]float32, bn)
		for i := range x {
			x[i] = 1
		}
		for i := range w {
			w[i] = 1
		}
		// Exact lengths are fine.
		laneWindow(dst, x, w, bias, acc, cols, rows, taps, xStride, xPitch, wPitch, bn, true)
		epilogue(dst, acc, bias, acc, cols, bn, true)
		for _, c := range []struct {
			name string
			out  []float32
			call func()
		}{
			{"laneWindow/dst", dst, func() {
				laneWindow(dst[:len(dst)-1], x, w, bias, nil, cols, rows, taps, xStride, xPitch, wPitch, bn, true)
			}},
			{"laneWindow/x", dst, func() {
				laneWindow(dst, x[:len(x)-1], w, nil, nil, cols, rows, taps, xStride, xPitch, wPitch, bn, true)
			}},
			{"laneWindow/w", dst, func() {
				laneWindow(dst, x, w[:len(w)-1], nil, nil, cols, rows, taps, xStride, xPitch, wPitch, bn, true)
			}},
			{"laneWindow/bias", dst, func() {
				laneWindow(dst, x, w, bias[:bn-1], nil, cols, rows, taps, xStride, xPitch, wPitch, bn, true)
			}},
			{"laneWindow/res", dst, func() {
				laneWindow(dst, x, w, nil, acc[:len(acc)-1], cols, rows, taps, xStride, xPitch, wPitch, bn, true)
			}},
			{"laneWindow/negative-stride", dst, func() {
				laneWindow(dst, x, w, nil, nil, cols, rows, taps, -1, xPitch, wPitch, bn, true)
			}},
			{"laneWindow/negative-pitch", dst, func() {
				laneWindow(dst, x, w, nil, nil, cols, rows, taps, xStride, xPitch, -1, bn, true)
			}},
			{"epilogue/dst", dst, func() { epilogue(dst[:len(dst)-1], acc, bias, nil, cols, bn, true) }},
			{"epilogue/acc", dst, func() { epilogue(dst, acc[:len(acc)-1], nil, nil, cols, bn, true) }},
			{"epilogue/bias", dst, func() { epilogue(dst, acc, bias[:bn-1], nil, cols, bn, true) }},
			{"epilogue/res", dst, func() { epilogue(dst, acc, nil, acc[:len(acc)-1], cols, bn, false) }},
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
