//go:build !amd64 || purego

package ops

// hasAVX2 is false where the assembly bodies are not built: rankK, laneMAC
// and epilogue always run their Go bodies.
const hasAVX2 = false

func rankKAVX2(acc, in, wt *float32, rows, k, inStride, ocb int) {
	panic("ops: rankKAVX2 is not built for this architecture or with the purego tag")
}

func laneMACAVX2(acc, x, w *float32, rows, taps, xStride, bn int) {
	panic("ops: laneMACAVX2 is not built for this architecture or with the purego tag")
}

func epilogueAVX2(dst, acc, bias, res *float32, rows, ocb int, relu bool) {
	panic("ops: epilogueAVX2 is not built for this architecture or with the purego tag")
}
