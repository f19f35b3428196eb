package ops

import "fmt"

// rankK is the microkernel under the direct template and the Winograd
// transform-domain product: the rank-k update of a rows × ocb accumulator
// tile,
//
//	acc[r*ocb+o] += Σ_kk in[r*inStride+kk] · wt[kk*ocb+o]   for r < rows, o < ocb,
//
// the register tile of the paper's Algorithm 1 (Figure 1): per reduction step
// one broadcast input value per row times one ocb-wide weight vector.
//
// Numeric contract: every element accumulates in ascending kk order. The
// dispatch, decided once at start-up with CPUID and XGETBV, tries ZMM, then
// AVX2+FMA, then Go: on amd64 CPUs with AVX-512F and the OS saving the
// opmask and ZMM state (hasAVX512), ocb values that are a multiple of 16 run
// the ZMM body; with AVX2 and FMA (hasFMA), the other multiples of 8 run the
// AVX2 body. Every step of both is one fused multiply-add,
// acc = fma(in, wt, acc) rounded once, so the two are bit-identical. Every
// other CPU, ocb and the purego build tag run rankKGo, which rounds each
// product before adding it. The fused and Go bodies are not bit-identical:
// per element they differ by at most 2·γ(k+1)·(|acc| + Σ_kk |in·wt|), with
// γ(n) = n·u/(1 − n·u) and u = 2⁻²⁴, the sum of the two bodies' forward error
// bounds. One process always runs the same body for the same ocb, so results
// stay bit-identical across threads, pool widths and repeated runs.
//
// The call panics, before any body runs, unless the last acc, in and wt
// element the update touches is in range.
func rankK(acc, in, wt []float32, rows, k, inStride, ocb int) {
	if rows <= 0 || k <= 0 {
		return
	}
	// With a non-negative stride the last element of each slice is the
	// highest index touched (a non-positive ocb fails the acc check).
	if inStride < 0 {
		panic(fmt.Sprintf("ops: rankK with negative inStride %d", inStride))
	}
	_ = acc[rows*ocb-1]
	_ = in[(rows-1)*inStride+k-1]
	_ = wt[k*ocb-1]
	if hasAVX512 && ocb%16 == 0 {
		rankKAVX512(&acc[0], &in[0], &wt[0], rows, k, inStride, ocb)
		return
	}
	if hasFMA && ocb%8 == 0 {
		rankKAVX2(&acc[0], &in[0], &wt[0], rows, k, inStride, ocb)
		return
	}
	rankKGo(acc, in, wt, rows, k, inStride, ocb)
}

// rankKGo is rankK's portable body. The explicit float32 conversion of each
// product forbids fusing it with the add (Go spec, "Floating-point
// operators"), so its result is the same on every architecture and GOAMD64
// level; it differs from the fused assembly body within rankK's bound.
func rankKGo(acc, in, wt []float32, rows, k, inStride, ocb int) {
	for r := 0; r < rows; r++ {
		a := acc[r*ocb : r*ocb+ocb]
		for kk, iv := range in[r*inStride : r*inStride+k] {
			w := wt[kk*ocb:][:len(a)]
			for oi := range a {
				a[oi] += float32(iv * w[oi])
			}
		}
	}
}

// laneWindow is the microkernel under the depthwise template: cols output
// positions of one output row of one channel block, each over its whole
// rows × taps window of the unpadded input, with the fused epilogue applied
// before the only store,
//
//	acc = Σ_r (Σ_s x[i*xStride + r*xPitch + s*bn + v] · w[r*wPitch + s*bn + v])
//	dst[i*bn+v] = relu((acc + bias[v]) + res[i*bn+v])   for i < cols, v < bn,
//
// where lane v of the input meets lane v of the weight: no channel reduction
// and no broadcast. x and w start at the first tap inside the image, so a
// window clipped by the padding passes fewer rows or taps and shifted
// slices; a nil bias or res skips its addition and relu false skips the
// clamp.
//
// Numeric contract: each kernel row's tap sum is formed first, in ascending s
// with every product rounded and no fused multiply-add, and is added once, in
// ascending r, to an accumulator that starts at +0; the epilogue follows
// epilogueGo's order and clamp. A skipped padding tap, whose product with a
// finite weight is ±0, can change a row's tap sum only in the sign of a zero;
// the accumulator is never -0, and adding a zero of either sign to it leaves
// it unchanged, so clipping the window changes no output bit against the
// explicitly padded input. The AVX2 body is bit-identical to laneWindowGo,
// the specification: bn values that are a multiple of 8 run it where hasAVX2
// holds, everything else laneWindowGo.
//
// The call panics, before any body runs, unless the last dst, x, w, bias and
// res element it touches is in range; with rows or taps 0 it reads no x or w
// element and stores the epilogue of +0.
func laneWindow(dst, x, w, bias, res []float32, cols, rows, taps, xStride, xPitch, wPitch, bn int, relu bool) {
	if cols <= 0 {
		return
	}
	if xStride < 0 || xPitch < 0 || wPitch < 0 {
		panic(fmt.Sprintf("ops: laneWindow with negative pitch (xStride %d, xPitch %d, wPitch %d)", xStride, xPitch, wPitch))
	}
	_ = dst[cols*bn-1]
	var xp, wp, bp, rp *float32
	if rows <= 0 || taps <= 0 {
		rows, taps = 0, 0
	} else {
		_ = x[(rows-1)*xPitch+(cols-1)*xStride+taps*bn-1]
		_ = w[(rows-1)*wPitch+taps*bn-1]
		xp, wp = &x[0], &w[0]
	}
	if bias != nil {
		_ = bias[bn-1]
		bp = &bias[0]
	}
	if res != nil {
		_ = res[cols*bn-1]
		rp = &res[0]
	}
	if hasAVX2 && bn%8 == 0 {
		laneWindowAVX2(&dst[0], xp, wp, bp, rp, cols, rows, taps, xStride, xPitch, wPitch, bn, relu)
		return
	}
	laneWindowGo(dst, x, w, bias, res, cols, rows, taps, xStride, xPitch, wPitch, bn, relu)
}

// laneWindowGo is the portable body and the specification of laneWindow.
func laneWindowGo(dst, x, w, bias, res []float32, cols, rows, taps, xStride, xPitch, wPitch, bn int, relu bool) {
	for i := 0; i < cols; i++ {
		d := dst[i*bn : i*bn+bn]
		for v := range d {
			var acc float32
			for r := 0; r < rows; r++ {
				xr, wr := x[i*xStride+r*xPitch+v:], w[r*wPitch+v:]
				sum := float32(xr[0] * wr[0])
				for s := 1; s < taps; s++ {
					sum += float32(xr[s*bn] * wr[s*bn])
				}
				acc += sum
			}
			if bias != nil {
				acc += bias[v]
			}
			if res != nil {
				acc += res[i*bn+v]
			}
			if relu {
				acc = relu32(acc)
			}
			d[v] = acc
		}
	}
}

// epilogue is the fused store under the direct and Winograd templates —
// bias, residual, ReLU, in that order (Algorithm 1 lines 21-23) — from a
// rows × ocb accumulator tile to dst:
//
//	dst[r*ocb+o] = relu((acc[r*ocb+o] + bias[o]) + res[r*ocb+o])   for r < rows, o < ocb,
//
// where a nil bias or res skips its addition and relu false skips the clamp.
//
// Numeric contract: the clamp is relu32, which passes NaN and -0 through
// unchanged; the AVX2 body (ocb%8 == 0, where hasAVX2 holds) clamps
// with VMAXPS taking the zero vector as its first source, which returns the
// second source — the value — for a NaN or a pair of zeros, so every body is
// bit-identical to epilogueGo, the specification.
//
// The call panics, before any body runs, unless the last dst, acc, bias and
// res element it touches is in range.
func epilogue(dst, acc, bias, res []float32, rows, ocb int, relu bool) {
	if rows <= 0 {
		return
	}
	_ = dst[rows*ocb-1]
	_ = acc[rows*ocb-1]
	var bp, rp *float32
	if bias != nil {
		_ = bias[ocb-1]
		bp = &bias[0]
	}
	if res != nil {
		_ = res[rows*ocb-1]
		rp = &res[0]
	}
	if hasAVX2 && ocb%8 == 0 {
		epilogueAVX2(&dst[0], &acc[0], bp, rp, rows, ocb, relu)
		return
	}
	epilogueGo(dst, acc, bias, res, rows, ocb, relu)
}

// epilogueGo is the portable body and the specification of epilogue.
func epilogueGo(dst, acc, bias, res []float32, rows, ocb int, relu bool) {
	for r := 0; r < rows; r++ {
		off := r * ocb
		for o, v := range acc[off : off+ocb] {
			if bias != nil {
				v += bias[o]
			}
			if res != nil {
				v += res[off+o]
			}
			if relu {
				v = relu32(v)
			}
			dst[off+o] = v
		}
	}
}

// winogradIn is the Winograd F(2x2, 3x3) input transform V = Bᵀ d B, lane-wise
// over a channel block: the 4x4 patch d arrives as 4 rows of 4·bn contiguous
// lanes (patch element (r, cc) of lane l at d[r*dStride+cc*bn+l]) and
// component xi = r*4+cc of V is written to v[xi*vStride+l], for l < bn. With
// Bᵀ = [1 0 -1 0; 0 1 1 0; 0 -1 1 0; 0 1 0 -1], per lane
//
//	t[0][cc] = d[0][cc] - d[2][cc]    V[r*4+0] = t[r][0] - t[r][2]
//	t[1][cc] = d[1][cc] + d[2][cc]    V[r*4+1] = t[r][1] + t[r][2]
//	t[2][cc] = d[2][cc] - d[1][cc]    V[r*4+2] = t[r][2] - t[r][1]
//	t[3][cc] = d[1][cc] - d[3][cc]    V[r*4+3] = t[r][1] - t[r][3]
//
// Numeric contract: each V component is those two rounded adds or
// subtracts, operands in the order written, so every body is bit-identical
// to winogradInGo, the specification. The dispatch is epilogue's: bn values
// that are a multiple of 8 run the AVX2 body where hasAVX2 holds, everything
// else runs winogradInGo.
//
// The call panics, before any body runs, unless the last v and d element the
// transform touches is in range.
func winogradIn(v, d []float32, dStride, vStride, bn int) {
	if bn <= 0 {
		return
	}
	if dStride < 0 || vStride < 0 {
		panic(fmt.Sprintf("ops: winogradIn with negative stride (dStride %d, vStride %d)", dStride, vStride))
	}
	_ = v[15*vStride+bn-1]
	_ = d[3*dStride+4*bn-1]
	if hasAVX2 && bn%8 == 0 {
		winogradInAVX2(&v[0], &d[0], dStride, vStride, bn)
		return
	}
	winogradInGo(v, d, dStride, vStride, bn)
}

// winogradInGo is the portable body and the specification of winogradIn.
func winogradInGo(v, d []float32, dStride, vStride, bn int) {
	d0, d1, d2, d3 := d[:4*bn], d[dStride:][:4*bn], d[2*dStride:][:4*bn], d[3*dStride:][:4*bn]
	for l := 0; l < bn; l++ {
		var t [4][4]float32
		for cc := 0; cc < 4; cc++ {
			x0, x1, x2, x3 := d0[cc*bn+l], d1[cc*bn+l], d2[cc*bn+l], d3[cc*bn+l]
			t[0][cc] = x0 - x2
			t[1][cc] = x1 + x2
			t[2][cc] = x2 - x1
			t[3][cc] = x1 - x3
		}
		for r := 0; r < 4; r++ {
			v[(r*4+0)*vStride+l] = t[r][0] - t[r][2]
			v[(r*4+1)*vStride+l] = t[r][1] + t[r][2]
			v[(r*4+2)*vStride+l] = t[r][2] - t[r][1]
			v[(r*4+3)*vStride+l] = t[r][1] - t[r][3]
		}
	}
}

// winogradOut is the Winograd F(2x2, 3x3) output transform Y = Aᵀ M A,
// lane-wise over a channel block: component xi = r*4+cc of M is read from
// m[xi*mStride+l] and output pixel (dy, dx) of the 2x2 tile is written to
// y[(dy*2+dx)*bn+l], for l < bn — two rows of 2·bn lanes, each in the
// NCHW[x]c order of one output row. With Aᵀ = [1 1 1 0; 0 1 -1 -1], per lane
//
//	t0[cc] = M[cc] + M[4+cc] + M[8+cc]       y00 = t0[0] + t0[1] + t0[2]
//	t1[cc] = M[4+cc] - M[8+cc] - M[12+cc]    y01 = t0[1] - t0[2] - t0[3]
//	                                         y10 = t1[0] + t1[1] + t1[2]
//	                                         y11 = t1[1] - t1[2] - t1[3]
//
// each evaluated left to right. Numeric contract: winogradIn's — every add
// and subtract rounded, operands in the order written — so every body is
// bit-identical to winogradOutGo; the dispatch is epilogue's.
//
// The call panics, before any body runs, unless the last y and m element the
// transform touches is in range.
func winogradOut(y, m []float32, mStride, bn int) {
	if bn <= 0 {
		return
	}
	if mStride < 0 {
		panic(fmt.Sprintf("ops: winogradOut with negative mStride %d", mStride))
	}
	_ = y[4*bn-1]
	_ = m[15*mStride+bn-1]
	if hasAVX2 && bn%8 == 0 {
		winogradOutAVX2(&y[0], &m[0], mStride, bn)
		return
	}
	winogradOutGo(y, m, mStride, bn)
}

// winogradOutGo is the portable body and the specification of winogradOut.
func winogradOutGo(y, m []float32, mStride, bn int) {
	y = y[:4*bn]
	for l := 0; l < bn; l++ {
		var t0, t1 [4]float32
		for cc := 0; cc < 4; cc++ {
			m0, m1, m2, m3 := m[cc*mStride+l], m[(4+cc)*mStride+l], m[(8+cc)*mStride+l], m[(12+cc)*mStride+l]
			t0[cc] = m0 + m1 + m2
			t1[cc] = m1 - m2 - m3
		}
		y[l] = t0[0] + t0[1] + t0[2]
		y[bn+l] = t0[1] - t0[2] - t0[3]
		y[2*bn+l] = t1[0] + t1[1] + t1[2]
		y[3*bn+l] = t1[1] - t1[2] - t1[3]
	}
}

// laneMax is the microkernel under NCHW[x]c max pooling: one window position
// folded lane-wise into the running maxima,
//
//	d[i] = v[i] > d[i] ? v[i] : d[i]   for i < bn,
//
// so a NaN in v never replaces d[i], a NaN already in d[i] is never replaced,
// and of +0 and -0 the one already in d stays — poolWindow's `v > best`,
// element by element.
//
// Numeric contract: the AVX2 body (bn%8 == 0, epilogue's dispatch) is VMAXPS
// with v as the first source and d as the second, which returns the second
// source when either is NaN or both are zeros of either sign; so every body
// is bit-identical to laneMaxGo, the specification.
//
// The call panics, before any body runs, unless d and v hold bn elements.
func laneMax(d, v []float32, bn int) {
	if bn <= 0 {
		return
	}
	_ = d[bn-1]
	_ = v[bn-1]
	if hasAVX2 && bn%8 == 0 {
		laneMaxAVX2(&d[0], &v[0], bn)
		return
	}
	laneMaxGo(d, v, bn)
}

// laneMaxGo is the portable body and the specification of laneMax.
func laneMaxGo(d, v []float32, bn int) {
	d = d[:bn]
	for i, x := range v[:bn] {
		if x > d[i] {
			d[i] = x
		}
	}
}

// The CPUID and XCR0 bits detect reads.
const (
	cpuidFMA     = 1 << 12 // leaf 1, ECX
	cpuidOSXSAVE = 1 << 27 // leaf 1, ECX: XGETBV is usable
	cpuidAVX     = 1 << 28 // leaf 1, ECX
	cpuidAVX2    = 1 << 5  // leaf 7, EBX
	cpuidAVX512F = 1 << 16 // leaf 7, EBX
	xcr0YMM      = 0x06    // the OS saves the XMM and YMM state
	xcr0ZMM      = 0xe6    // ... and the opmask, upper ZMM0-15 and ZMM16-31 state
)

// detect decides the dispatch flags from CPUID leaf 1's ECX, leaf 7's EBX and
// XCR0: avx2 needs AVX, AVX2, OSXSAVE and the OS saving the YMM state; fma
// needs avx2 and the FMA extension; avx512 needs fma, AVX-512F and the OS
// saving the opmask and full ZMM state. It is pure, so the gate is tested on
// every build.
func detect(ecx1, ebx7, xcr0 uint32) (avx2, fma, avx512 bool) {
	avx2 = ecx1&cpuidOSXSAVE != 0 && ecx1&cpuidAVX != 0 && xcr0&xcr0YMM == xcr0YMM && ebx7&cpuidAVX2 != 0
	fma = avx2 && ecx1&cpuidFMA != 0
	return avx2, fma, fma && ebx7&cpuidAVX512F != 0 && xcr0&xcr0ZMM == xcr0ZMM
}
