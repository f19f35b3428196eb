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
// Numeric contract: every element is accumulated in ascending kk order with
// a separately rounded multiply and add (no fused multiply-add), so every body
// is bit-identical to rankKGo, which is the specification. On amd64 CPUs with
// AVX2 enabled by the OS (checked once at start-up with CPUID and XGETBV),
// ocb values that are a multiple of 8 run the assembly body; every other CPU,
// ocb and the purego build tag run rankKGo.
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
	if hasAVX2 && ocb%8 == 0 {
		rankKAVX2(&acc[0], &in[0], &wt[0], rows, k, inStride, ocb)
		return
	}
	rankKGo(acc, in, wt, rows, k, inStride, ocb)
}

// rankKGo is the portable body and the specification of rankK. The explicit
// float32 conversion of each product forbids fusing it with the add (Go spec,
// "Floating-point operators"), so the result is the same on every
// architecture and GOAMD64 level.
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

// laneMAC is the microkernel under the depthwise template: one kernel row of
// taps applied lane-wise to a rows × bn accumulator tile,
//
//	acc[i*bn+v] += Σ_s x[i*xStride+s*bn+v] · w[s*bn+v]   for i < rows, v < bn,
//
// where lane v of the input meets lane v of the weight: no channel reduction
// and no broadcast.
//
// Numeric contract: each element's tap sum is formed first, in ascending s
// with every product rounded and no fused multiply-add, and is then added to
// acc once, so every body is bit-identical to laneMACGo, the specification.
// The dispatch is rankK's: bn values that are a multiple of 8 run the AVX2
// body where hasAVX2 holds, everything else runs laneMACGo.
//
// The call panics, before any body runs, unless the last acc, x and w element
// the update touches is in range.
func laneMAC(acc, x, w []float32, rows, taps, xStride, bn int) {
	if rows <= 0 || taps <= 0 {
		return
	}
	if xStride < 0 {
		panic(fmt.Sprintf("ops: laneMAC with negative xStride %d", xStride))
	}
	_ = acc[rows*bn-1]
	_ = x[(rows-1)*xStride+taps*bn-1]
	_ = w[taps*bn-1]
	if hasAVX2 && bn%8 == 0 {
		laneMACAVX2(&acc[0], &x[0], &w[0], rows, taps, xStride, bn)
		return
	}
	laneMACGo(acc, x, w, rows, taps, xStride, bn)
}

// laneMACGo is the portable body and the specification of laneMAC.
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

// epilogue is the fused store under the direct and depthwise templates —
// bias, residual, ReLU, in that order (Algorithm 1 lines 21-23) — from a
// rows × ocb accumulator tile to dst:
//
//	dst[r*ocb+o] = relu((acc[r*ocb+o] + bias[o]) + res[r*ocb+o])   for r < rows, o < ocb,
//
// where a nil bias or res skips its addition and relu false skips the clamp.
//
// Numeric contract: the clamp is relu32, which passes NaN and -0 through
// unchanged; the AVX2 body (ocb%8 == 0, the same dispatch as rankK) clamps
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
