//go:build amd64 && !purego

#include "textflag.h"

// func rankKAVX2(acc, in, wt *float32, rows, k, inStride, ocb int)
//
// acc[r*ocb+o] += Σ_kk in[r*inStride+kk] · wt[kk*ocb+o], each step one
// VFMADD231PS — fma(in, wt, acc), rounded once — in ascending kk order per
// element. Requires ocb%8 == 0, rows >= 1, k >= 1.
//
// Registers: AX acc at the current row block, BX in at the current row block,
// R10 wt, R11 rows left, R8 inStride in bytes, R9 3*inStride in bytes, DX ocb
// in bytes (the row pitch of acc and of wt), R13 column offset in bytes, R12
// acc at the current column block, SI in and DI wt at the current kk, CX the
// kk count (and scratch). Y0-Y7 accumulate; Y8-Y10 hold weights and the
// broadcast input. BP, R14, R15 and Y15 are not touched.
TEXT ·rankKAVX2(SB), NOSPLIT, $0-56
	MOVQ acc+0(FP), AX
	MOVQ in+8(FP), BX
	MOVQ wt+16(FP), R10
	MOVQ rows+24(FP), R11
	MOVQ inStride+40(FP), R8
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9
	MOVQ ocb+48(FP), DX
	SHLQ $2, DX

rows4:
	CMPQ R11, $4
	JLT  rows2
	XORQ R13, R13

rows4cols16:
	LEAQ 64(R13), CX
	CMPQ CX, DX
	JGT  rows4cols8
	LEAQ (AX)(R13*1), R12
	LEAQ (R12)(DX*2), CX
	VMOVUPS (R12), Y0
	VMOVUPS 32(R12), Y1
	VMOVUPS (R12)(DX*1), Y2
	VMOVUPS 32(R12)(DX*1), Y3
	VMOVUPS (CX), Y4
	VMOVUPS 32(CX), Y5
	VMOVUPS (CX)(DX*1), Y6
	VMOVUPS 32(CX)(DX*1), Y7
	MOVQ BX, SI
	LEAQ (R10)(R13*1), DI
	MOVQ k+32(FP), CX

loop4x16:
	VMOVUPS      (DI), Y8
	VMOVUPS      32(DI), Y9
	VBROADCASTSS (SI), Y10
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VBROADCASTSS (SI)(R8*1), Y10
	VFMADD231PS  Y8, Y10, Y2
	VFMADD231PS  Y9, Y10, Y3
	VBROADCASTSS (SI)(R8*2), Y10
	VFMADD231PS  Y8, Y10, Y4
	VFMADD231PS  Y9, Y10, Y5
	VBROADCASTSS (SI)(R9*1), Y10
	VFMADD231PS  Y8, Y10, Y6
	VFMADD231PS  Y9, Y10, Y7
	ADDQ         $4, SI
	ADDQ         DX, DI
	DECQ         CX
	JNZ          loop4x16

	LEAQ    (R12)(DX*2), CX
	VMOVUPS Y0, (R12)
	VMOVUPS Y1, 32(R12)
	VMOVUPS Y2, (R12)(DX*1)
	VMOVUPS Y3, 32(R12)(DX*1)
	VMOVUPS Y4, (CX)
	VMOVUPS Y5, 32(CX)
	VMOVUPS Y6, (CX)(DX*1)
	VMOVUPS Y7, 32(CX)(DX*1)
	ADDQ    $64, R13
	JMP     rows4cols16

rows4cols8:
	CMPQ R13, DX
	JGE  rows4next
	LEAQ (AX)(R13*1), R12
	LEAQ (R12)(DX*2), CX
	VMOVUPS (R12), Y0
	VMOVUPS (R12)(DX*1), Y2
	VMOVUPS (CX), Y4
	VMOVUPS (CX)(DX*1), Y6
	MOVQ BX, SI
	LEAQ (R10)(R13*1), DI
	MOVQ k+32(FP), CX

loop4x8:
	VMOVUPS      (DI), Y8
	VBROADCASTSS (SI), Y10
	VFMADD231PS  Y8, Y10, Y0
	VBROADCASTSS (SI)(R8*1), Y10
	VFMADD231PS  Y8, Y10, Y2
	VBROADCASTSS (SI)(R8*2), Y10
	VFMADD231PS  Y8, Y10, Y4
	VBROADCASTSS (SI)(R9*1), Y10
	VFMADD231PS  Y8, Y10, Y6
	ADDQ         $4, SI
	ADDQ         DX, DI
	DECQ         CX
	JNZ          loop4x8

	LEAQ    (R12)(DX*2), CX
	VMOVUPS Y0, (R12)
	VMOVUPS Y2, (R12)(DX*1)
	VMOVUPS Y4, (CX)
	VMOVUPS Y6, (CX)(DX*1)
	ADDQ    $32, R13
	JMP     rows4cols8

rows4next:
	LEAQ (AX)(DX*4), AX
	LEAQ (BX)(R8*4), BX
	SUBQ $4, R11
	JMP  rows4

	// At most 3 rows are left: two of them run as one block, so each
	// weight load feeds two rows and a 16-lane pass keeps four chains.
rows2:
	CMPQ R11, $2
	JLT  row1
	XORQ R13, R13

rows2cols16:
	LEAQ 64(R13), CX
	CMPQ CX, DX
	JGT  rows2cols8
	LEAQ (AX)(R13*1), R12
	VMOVUPS (R12), Y0
	VMOVUPS 32(R12), Y1
	VMOVUPS (R12)(DX*1), Y2
	VMOVUPS 32(R12)(DX*1), Y3
	MOVQ BX, SI
	LEAQ (R10)(R13*1), DI
	MOVQ k+32(FP), CX

loop2x16:
	VMOVUPS      (DI), Y8
	VMOVUPS      32(DI), Y9
	VBROADCASTSS (SI), Y10
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VBROADCASTSS (SI)(R8*1), Y10
	VFMADD231PS  Y8, Y10, Y2
	VFMADD231PS  Y9, Y10, Y3
	ADDQ         $4, SI
	ADDQ         DX, DI
	DECQ         CX
	JNZ          loop2x16

	VMOVUPS Y0, (R12)
	VMOVUPS Y1, 32(R12)
	VMOVUPS Y2, (R12)(DX*1)
	VMOVUPS Y3, 32(R12)(DX*1)
	ADDQ    $64, R13
	JMP     rows2cols16

rows2cols8:
	CMPQ R13, DX
	JGE  rows2next
	LEAQ (AX)(R13*1), R12
	VMOVUPS (R12), Y0
	VMOVUPS (R12)(DX*1), Y2
	MOVQ BX, SI
	LEAQ (R10)(R13*1), DI
	MOVQ k+32(FP), CX

loop2x8:
	VMOVUPS      (DI), Y8
	VBROADCASTSS (SI), Y10
	VFMADD231PS  Y8, Y10, Y0
	VBROADCASTSS (SI)(R8*1), Y10
	VFMADD231PS  Y8, Y10, Y2
	ADDQ         $4, SI
	ADDQ         DX, DI
	DECQ         CX
	JNZ          loop2x8

	VMOVUPS Y0, (R12)
	VMOVUPS Y2, (R12)(DX*1)
	ADDQ    $32, R13
	JMP     rows2cols8

rows2next:
	LEAQ (AX)(DX*2), AX
	LEAQ (BX)(R8*2), BX
	SUBQ $2, R11

	// The last row, if one is left.
row1:
	TESTQ R11, R11
	JZ    done
	XORQ  R13, R13

row1cols32:
	LEAQ 128(R13), CX
	CMPQ CX, DX
	JGT  row1cols16
	LEAQ (AX)(R13*1), R12
	VMOVUPS (R12), Y0
	VMOVUPS 32(R12), Y1
	VMOVUPS 64(R12), Y2
	VMOVUPS 96(R12), Y3
	MOVQ BX, SI
	LEAQ (R10)(R13*1), DI
	MOVQ k+32(FP), CX

loop1x32:
	VBROADCASTSS (SI), Y10
	VFMADD231PS  (DI), Y10, Y0
	VFMADD231PS  32(DI), Y10, Y1
	VFMADD231PS  64(DI), Y10, Y2
	VFMADD231PS  96(DI), Y10, Y3
	ADDQ         $4, SI
	ADDQ         DX, DI
	DECQ         CX
	JNZ          loop1x32

	VMOVUPS Y0, (R12)
	VMOVUPS Y1, 32(R12)
	VMOVUPS Y2, 64(R12)
	VMOVUPS Y3, 96(R12)
	ADDQ    $128, R13
	JMP     row1cols32

row1cols16:
	LEAQ 64(R13), CX
	CMPQ CX, DX
	JGT  row1cols8
	LEAQ (AX)(R13*1), R12
	VMOVUPS (R12), Y0
	VMOVUPS 32(R12), Y1
	MOVQ BX, SI
	LEAQ (R10)(R13*1), DI
	MOVQ k+32(FP), CX

loop1x16:
	VBROADCASTSS (SI), Y10
	VFMADD231PS  (DI), Y10, Y0
	VFMADD231PS  32(DI), Y10, Y1
	ADDQ         $4, SI
	ADDQ         DX, DI
	DECQ         CX
	JNZ          loop1x16

	VMOVUPS Y0, (R12)
	VMOVUPS Y1, 32(R12)
	ADDQ    $64, R13

row1cols8:
	CMPQ R13, DX
	JGE  done
	LEAQ (AX)(R13*1), R12
	VMOVUPS (R12), Y0
	MOVQ BX, SI
	LEAQ (R10)(R13*1), DI
	MOVQ k+32(FP), CX

loop1x8:
	VBROADCASTSS (SI), Y10
	VFMADD231PS  (DI), Y10, Y0
	ADDQ         $4, SI
	ADDQ         DX, DI
	DECQ         CX
	JNZ          loop1x8

	VMOVUPS Y0, (R12)

done:
	VZEROUPPER
	RET

// func laneMACAVX2(acc, x, w *float32, rows, taps, xStride, bn int)
//
// acc[i*bn+v] += Σ_s x[i*xStride+s*bn+v] · w[s*bn+v]: per element the tap
// sum starts at the first rounded product (VMULPS), adds the others in
// ascending s (VMULPS, VADDPS), and is added to acc once. Requires bn%8 == 0,
// rows >= 1, taps >= 1.
//
// Registers: AX acc and BX x at the current row, R10 w, R11 rows left, R9
// taps, R8 xStride in bytes, DX bn in bytes (the tap pitch of x and w and the
// row pitch of acc), R13 lane offset in bytes, SI x and DI w at the current
// tap, CX the tap count (and scratch), R12 acc at the current lanes. Y0-Y3
// hold tap sums, Y4-Y7 products and acc. BP, R14, R15 and Y15 are not
// touched.
TEXT ·laneMACAVX2(SB), NOSPLIT, $0-56
	MOVQ acc+0(FP), AX
	MOVQ x+8(FP), BX
	MOVQ w+16(FP), R10
	MOVQ rows+24(FP), R11
	MOVQ taps+32(FP), R9
	MOVQ xStride+40(FP), R8
	SHLQ $2, R8
	MOVQ bn+48(FP), DX
	SHLQ $2, DX

lmRow:
	XORQ R13, R13

lmCols32:
	LEAQ 128(R13), CX
	CMPQ CX, DX
	JGT  lmCols8
	LEAQ (BX)(R13*1), SI
	LEAQ (R10)(R13*1), DI
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	VMULPS  (DI), Y0, Y0
	VMULPS  32(DI), Y1, Y1
	VMULPS  64(DI), Y2, Y2
	VMULPS  96(DI), Y3, Y3
	MOVQ    R9, CX
	DECQ    CX
	JZ      lmStore32

lmTaps32:
	ADDQ    DX, SI
	ADDQ    DX, DI
	VMOVUPS (SI), Y4
	VMOVUPS 32(SI), Y5
	VMOVUPS 64(SI), Y6
	VMOVUPS 96(SI), Y7
	VMULPS  (DI), Y4, Y4
	VMULPS  32(DI), Y5, Y5
	VMULPS  64(DI), Y6, Y6
	VMULPS  96(DI), Y7, Y7
	VADDPS  Y4, Y0, Y0
	VADDPS  Y5, Y1, Y1
	VADDPS  Y6, Y2, Y2
	VADDPS  Y7, Y3, Y3
	DECQ    CX
	JNZ     lmTaps32

lmStore32:
	LEAQ    (AX)(R13*1), R12
	VMOVUPS (R12), Y4
	VMOVUPS 32(R12), Y5
	VMOVUPS 64(R12), Y6
	VMOVUPS 96(R12), Y7
	VADDPS  Y0, Y4, Y4
	VADDPS  Y1, Y5, Y5
	VADDPS  Y2, Y6, Y6
	VADDPS  Y3, Y7, Y7
	VMOVUPS Y4, (R12)
	VMOVUPS Y5, 32(R12)
	VMOVUPS Y6, 64(R12)
	VMOVUPS Y7, 96(R12)
	ADDQ    $128, R13
	JMP     lmCols32

lmCols8:
	CMPQ    R13, DX
	JGE     lmNext
	LEAQ    (BX)(R13*1), SI
	LEAQ    (R10)(R13*1), DI
	VMOVUPS (SI), Y0
	VMULPS  (DI), Y0, Y0
	MOVQ    R9, CX
	DECQ    CX
	JZ      lmStore8

lmTaps8:
	ADDQ    DX, SI
	ADDQ    DX, DI
	VMOVUPS (SI), Y4
	VMULPS  (DI), Y4, Y4
	VADDPS  Y4, Y0, Y0
	DECQ    CX
	JNZ     lmTaps8

lmStore8:
	LEAQ    (AX)(R13*1), R12
	VMOVUPS (R12), Y4
	VADDPS  Y0, Y4, Y4
	VMOVUPS Y4, (R12)
	ADDQ    $32, R13
	JMP     lmCols8

lmNext:
	ADDQ DX, AX
	ADDQ R8, BX
	DECQ R11
	JNZ  lmRow
	VZEROUPPER
	RET

// func epilogueAVX2(dst, acc, bias, res *float32, rows, ocb int, relu bool)
//
// dst[r*ocb+o] = relu((acc[r*ocb+o] + bias[o]) + res[r*ocb+o]), a nil bias or
// res skipping its VADDPS and relu false skipping the clamp. The clamp is
// VMAXPS with the zero vector as first source: it returns the second source,
// the value, when that is NaN or a zero of either sign, as relu32 does.
// Requires ocb%8 == 0, rows >= 1.
//
// Registers: DI dst, SI acc, R8 bias, R9 res, R10 relu, R11 rows left, DX ocb
// in bytes, AX offset of the current row in bytes, CX lane offset in bytes
// (the bias offset), R12 AX+CX (and scratch). Y0-Y3 hold values, Y7 zero. BP,
// R14, R15 and Y15 are not touched.
TEXT ·epilogueAVX2(SB), NOSPLIT, $0-49
	MOVQ    dst+0(FP), DI
	MOVQ    acc+8(FP), SI
	MOVQ    bias+16(FP), R8
	MOVQ    res+24(FP), R9
	MOVQ    rows+32(FP), R11
	MOVQ    ocb+40(FP), DX
	SHLQ    $2, DX
	MOVBQZX relu+48(FP), R10
	VXORPS  Y7, Y7, Y7
	XORQ    AX, AX

epRow:
	XORQ CX, CX

epCols32:
	LEAQ    128(CX), R12
	CMPQ    R12, DX
	JGT     epCols8
	LEAQ    (AX)(CX*1), R12
	VMOVUPS (SI)(R12*1), Y0
	VMOVUPS 32(SI)(R12*1), Y1
	VMOVUPS 64(SI)(R12*1), Y2
	VMOVUPS 96(SI)(R12*1), Y3
	TESTQ   R8, R8
	JZ      epRes32
	VADDPS  (R8)(CX*1), Y0, Y0
	VADDPS  32(R8)(CX*1), Y1, Y1
	VADDPS  64(R8)(CX*1), Y2, Y2
	VADDPS  96(R8)(CX*1), Y3, Y3

epRes32:
	TESTQ  R9, R9
	JZ     epReLU32
	VADDPS (R9)(R12*1), Y0, Y0
	VADDPS 32(R9)(R12*1), Y1, Y1
	VADDPS 64(R9)(R12*1), Y2, Y2
	VADDPS 96(R9)(R12*1), Y3, Y3

epReLU32:
	TESTQ  R10, R10
	JZ     epStore32
	VMAXPS Y0, Y7, Y0
	VMAXPS Y1, Y7, Y1
	VMAXPS Y2, Y7, Y2
	VMAXPS Y3, Y7, Y3

epStore32:
	VMOVUPS Y0, (DI)(R12*1)
	VMOVUPS Y1, 32(DI)(R12*1)
	VMOVUPS Y2, 64(DI)(R12*1)
	VMOVUPS Y3, 96(DI)(R12*1)
	ADDQ    $128, CX
	JMP     epCols32

epCols8:
	CMPQ    CX, DX
	JGE     epNext
	LEAQ    (AX)(CX*1), R12
	VMOVUPS (SI)(R12*1), Y0
	TESTQ   R8, R8
	JZ      epRes8
	VADDPS  (R8)(CX*1), Y0, Y0

epRes8:
	TESTQ  R9, R9
	JZ     epReLU8
	VADDPS (R9)(R12*1), Y0, Y0

epReLU8:
	TESTQ  R10, R10
	JZ     epStore8
	VMAXPS Y0, Y7, Y0

epStore8:
	VMOVUPS Y0, (DI)(R12*1)
	ADDQ    $32, CX
	JMP     epCols8

epNext:
	ADDQ DX, AX
	DECQ R11
	JNZ  epRow
	VZEROUPPER
	RET

// func winogradInAVX2(v, d *float32, dStride, vStride, bn int)
//
// V = Bᵀ d B per lane: t[0] = d0 - d2, t[1] = d1 + d2, t[2] = d2 - d1,
// t[3] = d1 - d3 (row-wise over the patch columns), then per t row
// V[r*4+0..3] = t0 - t2, t1 + t2, t2 - t1, t1 - t3. Each VADDPS/VSUBPS takes
// the left operand as its first source. Requires bn%8 == 0, bn >= 8.
//
// Registers: SI d and DI v at the current lanes, R8 dStride in bytes, R10
// vStride in bytes, R11 3*vStride in bytes, DX bn in bytes (the column pitch
// of d), R9 3*bn in bytes, CX lane bytes left, AX/BX/R13 patch row and V row
// pointers. Y0-Y3 hold patch row 1, Y4-Y7 row 2, Y8-Y11 a row of t, Y12-Y13
// one V component. BP, R14, R15 and Y15 are not touched.
TEXT ·winogradInAVX2(SB), NOSPLIT, $0-40
	MOVQ v+0(FP), DI
	MOVQ d+8(FP), SI
	MOVQ dStride+16(FP), R8
	SHLQ $2, R8
	MOVQ vStride+24(FP), R10
	SHLQ $2, R10
	LEAQ (R10)(R10*2), R11
	MOVQ bn+32(FP), DX
	SHLQ $2, DX
	LEAQ (DX)(DX*2), R9
	MOVQ DX, CX

wiLanes:
	LEAQ    (SI)(R8*1), AX
	LEAQ    (AX)(R8*1), BX
	LEAQ    (BX)(R8*1), R13
	VMOVUPS (AX), Y0
	VMOVUPS (AX)(DX*1), Y1
	VMOVUPS (AX)(DX*2), Y2
	VMOVUPS (AX)(R9*1), Y3
	VMOVUPS (BX), Y4
	VMOVUPS (BX)(DX*1), Y5
	VMOVUPS (BX)(DX*2), Y6
	VMOVUPS (BX)(R9*1), Y7

	// t row 0 = d0 - d2 → V0..V3 at DI.
	VMOVUPS (SI), Y8
	VMOVUPS (SI)(DX*1), Y9
	VMOVUPS (SI)(DX*2), Y10
	VMOVUPS (SI)(R9*1), Y11
	VSUBPS  Y4, Y8, Y8
	VSUBPS  Y5, Y9, Y9
	VSUBPS  Y6, Y10, Y10
	VSUBPS  Y7, Y11, Y11
	VSUBPS  Y10, Y8, Y12
	VMOVUPS Y12, (DI)
	VADDPS  Y10, Y9, Y13
	VMOVUPS Y13, (DI)(R10*1)
	VSUBPS  Y9, Y10, Y12
	VMOVUPS Y12, (DI)(R10*2)
	VSUBPS  Y11, Y9, Y13
	VMOVUPS Y13, (DI)(R11*1)

	// t row 1 = d1 + d2 → V4..V7.
	LEAQ    (DI)(R10*4), AX
	VADDPS  Y4, Y0, Y8
	VADDPS  Y5, Y1, Y9
	VADDPS  Y6, Y2, Y10
	VADDPS  Y7, Y3, Y11
	VSUBPS  Y10, Y8, Y12
	VMOVUPS Y12, (AX)
	VADDPS  Y10, Y9, Y13
	VMOVUPS Y13, (AX)(R10*1)
	VSUBPS  Y9, Y10, Y12
	VMOVUPS Y12, (AX)(R10*2)
	VSUBPS  Y11, Y9, Y13
	VMOVUPS Y13, (AX)(R11*1)

	// t row 2 = d2 - d1 → V8..V11.
	LEAQ    (AX)(R10*4), BX
	VSUBPS  Y0, Y4, Y8
	VSUBPS  Y1, Y5, Y9
	VSUBPS  Y2, Y6, Y10
	VSUBPS  Y3, Y7, Y11
	VSUBPS  Y10, Y8, Y12
	VMOVUPS Y12, (BX)
	VADDPS  Y10, Y9, Y13
	VMOVUPS Y13, (BX)(R10*1)
	VSUBPS  Y9, Y10, Y12
	VMOVUPS Y12, (BX)(R10*2)
	VSUBPS  Y11, Y9, Y13
	VMOVUPS Y13, (BX)(R11*1)

	// t row 3 = d1 - d3 → V12..V15.
	LEAQ    (BX)(R10*4), AX
	VSUBPS  (R13), Y0, Y8
	VSUBPS  (R13)(DX*1), Y1, Y9
	VSUBPS  (R13)(DX*2), Y2, Y10
	VSUBPS  (R13)(R9*1), Y3, Y11
	VSUBPS  Y10, Y8, Y12
	VMOVUPS Y12, (AX)
	VADDPS  Y10, Y9, Y13
	VMOVUPS Y13, (AX)(R10*1)
	VSUBPS  Y9, Y10, Y12
	VMOVUPS Y12, (AX)(R10*2)
	VSUBPS  Y11, Y9, Y13
	VMOVUPS Y13, (AX)(R11*1)

	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $32, CX
	JNZ  wiLanes
	VZEROUPPER
	RET

// func winogradOutAVX2(y, m *float32, mStride, bn int)
//
// Y = Aᵀ M A per lane: t0[cc] = (M[cc] + M[4+cc]) + M[8+cc],
// t1[cc] = (M[4+cc] - M[8+cc]) - M[12+cc], then y00 = (t0[0] + t0[1]) + t0[2],
// y01 = (t0[1] - t0[2]) - t0[3], y10 and y11 likewise from t1. Each
// VADDPS/VSUBPS takes the left operand as its first source. Requires
// bn%8 == 0, bn >= 8.
//
// Registers: SI m and DI y at the current lanes, R8 mStride in bytes, R9
// 4*mStride in bytes, R10 12*mStride in bytes, DX bn in bytes, BX 3*bn in
// bytes, CX lane bytes left, AX M column cc. Y0-Y3 hold t0, Y4-Y7 t1, Y8-Y11
// operands and outputs. BP, R14, R15 and Y15 are not touched.
TEXT ·winogradOutAVX2(SB), NOSPLIT, $0-32
	MOVQ y+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ mStride+16(FP), R8
	SHLQ $2, R8
	MOVQ R8, R9
	SHLQ $2, R9
	LEAQ (R9)(R9*2), R10
	MOVQ bn+24(FP), DX
	SHLQ $2, DX
	LEAQ (DX)(DX*2), BX
	MOVQ DX, CX

woLanes:
	MOVQ    SI, AX
	VMOVUPS (AX), Y0
	VMOVUPS (AX)(R9*1), Y8
	VMOVUPS (AX)(R9*2), Y9
	VADDPS  Y8, Y0, Y0
	VADDPS  Y9, Y0, Y0
	VSUBPS  Y9, Y8, Y4
	VSUBPS  (AX)(R10*1), Y4, Y4
	ADDQ    R8, AX
	VMOVUPS (AX), Y1
	VMOVUPS (AX)(R9*1), Y8
	VMOVUPS (AX)(R9*2), Y9
	VADDPS  Y8, Y1, Y1
	VADDPS  Y9, Y1, Y1
	VSUBPS  Y9, Y8, Y5
	VSUBPS  (AX)(R10*1), Y5, Y5
	ADDQ    R8, AX
	VMOVUPS (AX), Y2
	VMOVUPS (AX)(R9*1), Y8
	VMOVUPS (AX)(R9*2), Y9
	VADDPS  Y8, Y2, Y2
	VADDPS  Y9, Y2, Y2
	VSUBPS  Y9, Y8, Y6
	VSUBPS  (AX)(R10*1), Y6, Y6
	ADDQ    R8, AX
	VMOVUPS (AX), Y3
	VMOVUPS (AX)(R9*1), Y8
	VMOVUPS (AX)(R9*2), Y9
	VADDPS  Y8, Y3, Y3
	VADDPS  Y9, Y3, Y3
	VSUBPS  Y9, Y8, Y7
	VSUBPS  (AX)(R10*1), Y7, Y7

	VADDPS  Y1, Y0, Y10
	VADDPS  Y2, Y10, Y10
	VMOVUPS Y10, (DI)
	VSUBPS  Y2, Y1, Y11
	VSUBPS  Y3, Y11, Y11
	VMOVUPS Y11, (DI)(DX*1)
	VADDPS  Y5, Y4, Y10
	VADDPS  Y6, Y10, Y10
	VMOVUPS Y10, (DI)(DX*2)
	VSUBPS  Y6, Y5, Y11
	VSUBPS  Y7, Y11, Y11
	VMOVUPS Y11, (DI)(BX*1)

	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $32, CX
	JNZ  woLanes
	VZEROUPPER
	RET

// func laneMaxAVX2(d, v *float32, bn int)
//
// d[i] = VMAXPS(first source v[i], second source d[i]): the second source is
// returned when either is NaN or both are zeros, so d keeps its value unless
// v[i] > d[i]. Requires bn%8 == 0, bn >= 8.
//
// Registers: DI d, SI v, CX bn in bytes, AX lane offset in bytes, DX scratch.
// Y0-Y3 hold values. BP, R14, R15 and Y15 are not touched.
TEXT ·laneMaxAVX2(SB), NOSPLIT, $0-24
	MOVQ d+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ bn+16(FP), CX
	SHLQ $2, CX
	XORQ AX, AX

lxCols32:
	LEAQ    128(AX), DX
	CMPQ    DX, CX
	JGT     lxCols8
	VMOVUPS (SI)(AX*1), Y0
	VMOVUPS 32(SI)(AX*1), Y1
	VMOVUPS 64(SI)(AX*1), Y2
	VMOVUPS 96(SI)(AX*1), Y3
	VMAXPS  (DI)(AX*1), Y0, Y0
	VMAXPS  32(DI)(AX*1), Y1, Y1
	VMAXPS  64(DI)(AX*1), Y2, Y2
	VMAXPS  96(DI)(AX*1), Y3, Y3
	VMOVUPS Y0, (DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	VMOVUPS Y2, 64(DI)(AX*1)
	VMOVUPS Y3, 96(DI)(AX*1)
	ADDQ    $128, AX
	JMP     lxCols32

lxCols8:
	CMPQ    AX, CX
	JGE     lxDone
	VMOVUPS (SI)(AX*1), Y0
	VMAXPS  (DI)(AX*1), Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     lxCols8

lxDone:
	VZEROUPPER
	RET

// func peakMulAddAVX2(n int)
//
// BenchmarkPeak's non-fused probe: n iterations of 12 independent YMM chains
// acc += x·y, each step a VMULPS into Y14 and a VADDPS into the chain, 192
// FLOPs per iteration. Every operand is zero, which the floating-point units
// time like any normal value. Requires n >= 1. Registers: CX the iteration
// count, Y0-Y11 the chains, Y12-Y13 the operands, Y14 the product. BP, R14,
// R15 and Y15 are not touched.
TEXT ·peakMulAddAVX2(SB), NOSPLIT, $0-8
	MOVQ n+0(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13

pmLoop:
	VMULPS      Y12, Y13, Y14
	VADDPS      Y14, Y0, Y0
	VMULPS      Y12, Y13, Y14
	VADDPS      Y14, Y1, Y1
	VMULPS      Y12, Y13, Y14
	VADDPS      Y14, Y2, Y2
	VMULPS      Y12, Y13, Y14
	VADDPS      Y14, Y3, Y3
	VMULPS      Y12, Y13, Y14
	VADDPS      Y14, Y4, Y4
	VMULPS      Y12, Y13, Y14
	VADDPS      Y14, Y5, Y5
	VMULPS      Y12, Y13, Y14
	VADDPS      Y14, Y6, Y6
	VMULPS      Y12, Y13, Y14
	VADDPS      Y14, Y7, Y7
	VMULPS      Y12, Y13, Y14
	VADDPS      Y14, Y8, Y8
	VMULPS      Y12, Y13, Y14
	VADDPS      Y14, Y9, Y9
	VMULPS      Y12, Y13, Y14
	VADDPS      Y14, Y10, Y10
	VMULPS      Y12, Y13, Y14
	VADDPS      Y14, Y11, Y11
	DECQ        CX
	JNZ         pmLoop
	VZEROUPPER
	RET

// func peakFMAAVX2(n int)
//
// BenchmarkPeak's fused probe: peakMulAddAVX2's 12 chains with each step one
// VFMADD231PS, 192 FLOPs per iteration. Requires n >= 1.
TEXT ·peakFMAAVX2(SB), NOSPLIT, $0-8
	MOVQ n+0(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13

pfLoop:
	VFMADD231PS Y12, Y13, Y0
	VFMADD231PS Y12, Y13, Y1
	VFMADD231PS Y12, Y13, Y2
	VFMADD231PS Y12, Y13, Y3
	VFMADD231PS Y12, Y13, Y4
	VFMADD231PS Y12, Y13, Y5
	VFMADD231PS Y12, Y13, Y6
	VFMADD231PS Y12, Y13, Y7
	VFMADD231PS Y12, Y13, Y8
	VFMADD231PS Y12, Y13, Y9
	VFMADD231PS Y12, Y13, Y10
	VFMADD231PS Y12, Y13, Y11
	DECQ        CX
	JNZ         pfLoop
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
