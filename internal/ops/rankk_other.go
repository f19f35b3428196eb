//go:build !amd64 || purego

package ops

// hasAVX2 is false where the assembly body is not built: rankK always runs
// rankKGo.
const hasAVX2 = false

func rankKAVX2(acc, in, wt *float32, rows, k, inStride, ocb int) {
	panic("ops: rankKAVX2 is not built for this architecture or with the purego tag")
}
