//go:build amd64 && !purego

#include "textflag.h"

// func rankKAVX2(acc, in, wt *float32, rows, k, inStride, ocb int)
//
// acc[r*ocb+o] += Σ_kk in[r*inStride+kk] · wt[kk*ocb+o], each product rounded
// (VMULPS) before it is added (VADDPS), in ascending kk order per element.
// Requires ocb%8 == 0, rows >= 1, k >= 1.
//
// Registers: AX acc at the current row block, BX in at the current row block,
// R10 wt, R11 rows left, R8 inStride in bytes, R9 3*inStride in bytes, DX ocb
// in bytes (the row pitch of acc and of wt), R13 column offset in bytes, R12
// acc at the current column block, SI in and DI wt at the current kk, CX the
// kk count (and scratch). Y0-Y7 accumulate; Y8-Y12 hold weights, the
// broadcast input and products. BP, R14, R15 and Y15 are not touched.
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
	JLT  row1
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
	VMULPS       Y8, Y10, Y11
	VADDPS       Y11, Y0, Y0
	VMULPS       Y9, Y10, Y12
	VADDPS       Y12, Y1, Y1
	VBROADCASTSS (SI)(R8*1), Y10
	VMULPS       Y8, Y10, Y11
	VADDPS       Y11, Y2, Y2
	VMULPS       Y9, Y10, Y12
	VADDPS       Y12, Y3, Y3
	VBROADCASTSS (SI)(R8*2), Y10
	VMULPS       Y8, Y10, Y11
	VADDPS       Y11, Y4, Y4
	VMULPS       Y9, Y10, Y12
	VADDPS       Y12, Y5, Y5
	VBROADCASTSS (SI)(R9*1), Y10
	VMULPS       Y8, Y10, Y11
	VADDPS       Y11, Y6, Y6
	VMULPS       Y9, Y10, Y12
	VADDPS       Y12, Y7, Y7
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
	VMULPS       Y8, Y10, Y11
	VADDPS       Y11, Y0, Y0
	VBROADCASTSS (SI)(R8*1), Y10
	VMULPS       Y8, Y10, Y12
	VADDPS       Y12, Y2, Y2
	VBROADCASTSS (SI)(R8*2), Y10
	VMULPS       Y8, Y10, Y11
	VADDPS       Y11, Y4, Y4
	VBROADCASTSS (SI)(R9*1), Y10
	VMULPS       Y8, Y10, Y12
	VADDPS       Y12, Y6, Y6
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
	VMULPS       (DI), Y10, Y8
	VADDPS       Y8, Y0, Y0
	VMULPS       32(DI), Y10, Y9
	VADDPS       Y9, Y1, Y1
	VMULPS       64(DI), Y10, Y11
	VADDPS       Y11, Y2, Y2
	VMULPS       96(DI), Y10, Y12
	VADDPS       Y12, Y3, Y3
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
	VMULPS       (DI), Y10, Y8
	VADDPS       Y8, Y0, Y0
	VMULPS       32(DI), Y10, Y9
	VADDPS       Y9, Y1, Y1
	ADDQ         $4, SI
	ADDQ         DX, DI
	DECQ         CX
	JNZ          loop1x16

	VMOVUPS Y0, (R12)
	VMOVUPS Y1, 32(R12)
	ADDQ    $64, R13

row1cols8:
	CMPQ R13, DX
	JGE  row1next
	LEAQ (AX)(R13*1), R12
	VMOVUPS (R12), Y0
	MOVQ BX, SI
	LEAQ (R10)(R13*1), DI
	MOVQ k+32(FP), CX

loop1x8:
	VBROADCASTSS (SI), Y10
	VMULPS       (DI), Y10, Y8
	VADDPS       Y8, Y0, Y0
	ADDQ         $4, SI
	ADDQ         DX, DI
	DECQ         CX
	JNZ          loop1x8

	VMOVUPS Y0, (R12)

row1next:
	ADDQ DX, AX
	ADDQ R8, BX
	DECQ R11
	JNZ  row1

done:
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
