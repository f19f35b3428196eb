package ops

import (
	"fmt"
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
