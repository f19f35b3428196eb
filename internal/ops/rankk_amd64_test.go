//go:build amd64 && !purego

package ops

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// TestConvTemplatesUnderBothRankKBodies runs TestConvNCHWcMatchesReference's
// and TestWinogradNCHWcMatchesReference's cases a second time with rankK's
// ZMM body switched off, so every oc_bn%16 == 0 call takes the AVX2+FMA body
// that CPUs without AVX-512 run. Each output must match the reference as in
// the first run and equal the ZMM run's bit for bit.
func TestConvTemplatesUnderBothRankKBodies(t *testing.T) {
	if !hasAVX512 {
		t.Skip("rankKAVX512 not in use: the CPU lacks AVX-512F (or OS opmask and ZMM support), so the first run already took the AVX2+FMA body")
	}
	withoutAVX512 := func(t *testing.T) {
		hasAVX512 = false
		t.Cleanup(func() { hasAVX512 = true })
	}
	sameBits := func(t *testing.T, zmm, avx2 *tensor.Tensor) {
		t.Helper()
		for i := range zmm.Data {
			if math.Float32bits(zmm.Data[i]) != math.Float32bits(avx2.Data[i]) {
				t.Fatalf("out[%d] = %v under the AVX2+FMA body, %v under the ZMM body", i, avx2.Data[i], zmm.Data[i])
			}
		}
	}
	for _, tc := range convNCHWcCases {
		t.Run("direct/"+tc.name, func(t *testing.T) {
			_, zmm := tc.run(goPar(3))
			withoutAVX512(t)
			ref, avx2 := tc.run(goPar(3))
			if !tensor.AllClose(ref, avx2, 1e-4) {
				t.Fatalf("blocked conv diverges from reference: max diff %g", tensor.MaxAbsDiff(ref, avx2))
			}
			sameBits(t, zmm, avx2)
		})
	}
	for _, tc := range winogradNCHWcCases {
		t.Run("winograd/"+tc.name, func(t *testing.T) {
			_, zmm := tc.run()
			withoutAVX512(t)
			ref, avx2 := tc.run()
			if !tensor.AllClose(ref, avx2, 1e-3) {
				t.Fatalf("blocked winograd diverges from direct: max diff %g", tensor.MaxAbsDiff(ref, avx2))
			}
			sameBits(t, zmm, avx2)
		})
	}
}
