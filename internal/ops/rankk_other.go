//go:build !amd64 || purego

package ops

// hasAVX2 and hasFMA are false where the assembly bodies are not built: every
// microkernel in rankk.go always runs its Go body.
const hasAVX2, hasFMA = false, false

func rankKAVX2(acc, in, wt *float32, rows, k, inStride, ocb int) {
	panic("ops: rankKAVX2 is not built for this architecture or with the purego tag")
}

func laneMACAVX2(acc, x, w *float32, rows, taps, xStride, bn int) {
	panic("ops: laneMACAVX2 is not built for this architecture or with the purego tag")
}

func epilogueAVX2(dst, acc, bias, res *float32, rows, ocb int, relu bool) {
	panic("ops: epilogueAVX2 is not built for this architecture or with the purego tag")
}

func winogradInAVX2(v, d *float32, dStride, vStride, bn int) {
	panic("ops: winogradInAVX2 is not built for this architecture or with the purego tag")
}

func winogradOutAVX2(y, m *float32, mStride, bn int) {
	panic("ops: winogradOutAVX2 is not built for this architecture or with the purego tag")
}

func laneMaxAVX2(d, v *float32, bn int) {
	panic("ops: laneMaxAVX2 is not built for this architecture or with the purego tag")
}

func peakMulAddAVX2(n int) {
	panic("ops: peakMulAddAVX2 is not built for this architecture or with the purego tag")
}

func peakFMAAVX2(n int) {
	panic("ops: peakFMAAVX2 is not built for this architecture or with the purego tag")
}
