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

// laneMACAVX2 is laneMAC's AVX2 body for bn%8 == 0, rows >= 1 and taps >= 1:
// per row, 32-lane blocks of tap sums in four YMM registers, then an 8-lane
// tail, each sum added to acc once after its last tap. VMULPS and VADDPS
// only, bit-identical to laneMACGo; no bounds checking.
//
//go:noescape
func laneMACAVX2(acc, x, w *float32, rows, taps, xStride, bn int)

// epilogueAVX2 is epilogue's AVX2 body for ocb%8 == 0 and rows >= 1, 32
// lanes at a time with an 8-lane tail; a nil bias or res skips that
// addition. No bounds checking.
//
//go:noescape
func epilogueAVX2(dst, acc, bias, res *float32, rows, ocb int, relu bool)

// winogradInAVX2 is winogradIn's AVX2 body for bn%8 == 0: 8 lanes at a time,
// rows 1 and 2 of the patch held in YMM registers while the four rows of t
// are formed and turned into V. VADDPS and VSUBPS only, bit-identical to
// winogradInGo; no bounds checking.
//
//go:noescape
func winogradInAVX2(v, d *float32, dStride, vStride, bn int)

// winogradOutAVX2 is winogradOut's AVX2 body for bn%8 == 0: 8 lanes at a
// time, the two rows of t in YMM registers. VADDPS and VSUBPS only,
// bit-identical to winogradOutGo; no bounds checking.
//
//go:noescape
func winogradOutAVX2(y, m *float32, mStride, bn int)

// laneMaxAVX2 is laneMax's AVX2 body for bn%8 == 0, 32 lanes at a time with
// an 8-lane tail. No bounds checking.
//
//go:noescape
func laneMaxAVX2(d, v *float32, bn int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
