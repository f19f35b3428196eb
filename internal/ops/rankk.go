package ops

import "fmt"

// rankK is the one microkernel under the direct template and the Winograd
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
