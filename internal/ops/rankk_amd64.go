//go:build amd64 && !purego

package ops

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the YMM
// register state across context switches. It is computed once at start-up.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS has enabled the XMM and YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// rankKAVX2 is rankK's AVX2 body for ocb%8 == 0, rows >= 1 and k >= 1: 4 rows
// × 16 lanes of accumulators in YMM registers, then an 8-lane column tail,
// then the remaining rows one at a time. It multiplies with VMULPS and adds
// with VADDPS (never VFMADD), bit-identical to rankKGo. It does no bounds
// checking: rankK checks the slices first.
//
//go:noescape
func rankKAVX2(acc, in, wt *float32, rows, k, inStride, ocb int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
