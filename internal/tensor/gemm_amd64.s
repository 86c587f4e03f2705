//go:build !purego

#include "textflag.h"

// func gemmKernel4(k, n int, a *float32, lda int, b *float32, ldb int, c *float32, ldc int, fresh bool)
//
// C[0:4][0:n] += A[0:4][0:k] · B[0:k][0:n] for n a positive multiple of 8
// and k >= 1; strides are in elements. The tile is 4 rows × 16 columns in
// eight YMM accumulators (Y0–Y7), with one 4 × 8 tile (Y0–Y3) for a
// trailing 8 columns. Each tile of C is loaded once, then for t ascending
// every accumulator gets one VMULPS (broadcast A[r][t] times the B row)
// and one VADDPS, and the tile is stored once: per output element the k
// terms are added one at a time in ascending order, with one rounding per
// multiply and one per add — the roundings of the scalar loop
// c += a*b. There is deliberately no FMA. With fresh set, the accumulators
// start at +0 instead of C and C is added in on store: each element becomes
// (0 + a·b + …) + c, a product summed from zero and then added once.
//
// Of two NaNs an add keeps its first source's payload, so each mode has its
// own loop with its adds' sources in the Go twin's compiled order: the
// plain loop puts the product first (gemmGo's c += a*b adds C from memory
// into the product), the fresh loop and its store put the sum first (s +=
// a*b and c += s add into the register holding s; a race build, which keeps
// s on the stack, compiles s += a*b the other way round).
TEXT ·gemmKernel4(SB), NOSPLIT, $0-65
	MOVQ n+8(FP), BX
	MOVQ lda+24(FP), R8
	MOVQ b+32(FP), R12
	MOVQ ldb+40(FP), AX
	MOVQ c+48(FP), DX
	MOVQ ldc+56(FP), R10
	MOVBQZX fresh+64(FP), R13
	SHLQ $2, R8            // lda, ldb, ldc in bytes
	SHLQ $2, AX
	SHLQ $2, R10
	LEAQ (R8)(R8*2), R9    // 3·lda
	LEAQ (R10)(R10*2), R11 // 3·ldc

tile16:
	CMPQ    BX, $16
	JLT     tile8
	MOVQ    a+16(FP), SI
	MOVQ    R12, DI
	MOVQ    k+0(FP), CX
	TESTQ   R13, R13
	JNZ     fresh16
	VMOVUPS (DX), Y0
	VMOVUPS 32(DX), Y1
	VMOVUPS (DX)(R10*1), Y2
	VMOVUPS 32(DX)(R10*1), Y3
	VMOVUPS (DX)(R10*2), Y4
	VMOVUPS 32(DX)(R10*2), Y5
	VMOVUPS (DX)(R11*1), Y6
	VMOVUPS 32(DX)(R11*1), Y7

	PCALIGN $64

loop16:
	VMOVUPS      (DI), Y8
	VMOVUPS      32(DI), Y9
	VBROADCASTSS (SI), Y10
	VMULPS       Y8, Y10, Y11
	VMULPS       Y9, Y10, Y12
	VADDPS       Y0, Y11, Y0
	VADDPS       Y1, Y12, Y1
	VBROADCASTSS (SI)(R8*1), Y10
	VMULPS       Y8, Y10, Y11
	VMULPS       Y9, Y10, Y12
	VADDPS       Y2, Y11, Y2
	VADDPS       Y3, Y12, Y3
	VBROADCASTSS (SI)(R8*2), Y10
	VMULPS       Y8, Y10, Y11
	VMULPS       Y9, Y10, Y12
	VADDPS       Y4, Y11, Y4
	VADDPS       Y5, Y12, Y5
	VBROADCASTSS (SI)(R9*1), Y10
	VMULPS       Y8, Y10, Y11
	VMULPS       Y9, Y10, Y12
	VADDPS       Y6, Y11, Y6
	VADDPS       Y7, Y12, Y7
	ADDQ         $4, SI
	ADDQ         AX, DI
	DECQ         CX
	JNZ          loop16
	JMP          store16

fresh16:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	PCALIGN $64

floop16:
	VMOVUPS      (DI), Y8
	VMOVUPS      32(DI), Y9
	VBROADCASTSS (SI), Y10
	VMULPS       Y8, Y10, Y11
	VMULPS       Y9, Y10, Y12
	VADDPS       Y11, Y0, Y0
	VADDPS       Y12, Y1, Y1
	VBROADCASTSS (SI)(R8*1), Y10
	VMULPS       Y8, Y10, Y11
	VMULPS       Y9, Y10, Y12
	VADDPS       Y11, Y2, Y2
	VADDPS       Y12, Y3, Y3
	VBROADCASTSS (SI)(R8*2), Y10
	VMULPS       Y8, Y10, Y11
	VMULPS       Y9, Y10, Y12
	VADDPS       Y11, Y4, Y4
	VADDPS       Y12, Y5, Y5
	VBROADCASTSS (SI)(R9*1), Y10
	VMULPS       Y8, Y10, Y11
	VMULPS       Y9, Y10, Y12
	VADDPS       Y11, Y6, Y6
	VADDPS       Y12, Y7, Y7
	ADDQ         $4, SI
	ADDQ         AX, DI
	DECQ         CX
	JNZ          floop16

	VMOVUPS (DX), Y8
	VADDPS  Y8, Y0, Y0
	VMOVUPS 32(DX), Y9
	VADDPS  Y9, Y1, Y1
	VMOVUPS (DX)(R10*1), Y8
	VADDPS  Y8, Y2, Y2
	VMOVUPS 32(DX)(R10*1), Y9
	VADDPS  Y9, Y3, Y3
	VMOVUPS (DX)(R10*2), Y8
	VADDPS  Y8, Y4, Y4
	VMOVUPS 32(DX)(R10*2), Y9
	VADDPS  Y9, Y5, Y5
	VMOVUPS (DX)(R11*1), Y8
	VADDPS  Y8, Y6, Y6
	VMOVUPS 32(DX)(R11*1), Y9
	VADDPS  Y9, Y7, Y7

store16:
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, (DX)(R10*1)
	VMOVUPS Y3, 32(DX)(R10*1)
	VMOVUPS Y4, (DX)(R10*2)
	VMOVUPS Y5, 32(DX)(R10*2)
	VMOVUPS Y6, (DX)(R11*1)
	VMOVUPS Y7, 32(DX)(R11*1)
	ADDQ    $64, DX
	ADDQ    $64, R12
	SUBQ    $16, BX
	JMP     tile16

tile8:
	CMPQ    BX, $8
	JLT     done
	MOVQ    a+16(FP), SI
	MOVQ    R12, DI
	MOVQ    k+0(FP), CX
	TESTQ   R13, R13
	JNZ     fresh8
	VMOVUPS (DX), Y0
	VMOVUPS (DX)(R10*1), Y1
	VMOVUPS (DX)(R10*2), Y2
	VMOVUPS (DX)(R11*1), Y3

	PCALIGN $64

loop8:
	VMOVUPS      (DI), Y8
	VBROADCASTSS (SI), Y10
	VMULPS       Y8, Y10, Y11
	VADDPS       Y0, Y11, Y0
	VBROADCASTSS (SI)(R8*1), Y10
	VMULPS       Y8, Y10, Y12
	VADDPS       Y1, Y12, Y1
	VBROADCASTSS (SI)(R8*2), Y10
	VMULPS       Y8, Y10, Y11
	VADDPS       Y2, Y11, Y2
	VBROADCASTSS (SI)(R9*1), Y10
	VMULPS       Y8, Y10, Y12
	VADDPS       Y3, Y12, Y3
	ADDQ         $4, SI
	ADDQ         AX, DI
	DECQ         CX
	JNZ          loop8
	JMP          store8

fresh8:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

	PCALIGN $64

floop8:
	VMOVUPS      (DI), Y8
	VBROADCASTSS (SI), Y10
	VMULPS       Y8, Y10, Y11
	VADDPS       Y11, Y0, Y0
	VBROADCASTSS (SI)(R8*1), Y10
	VMULPS       Y8, Y10, Y12
	VADDPS       Y12, Y1, Y1
	VBROADCASTSS (SI)(R8*2), Y10
	VMULPS       Y8, Y10, Y11
	VADDPS       Y11, Y2, Y2
	VBROADCASTSS (SI)(R9*1), Y10
	VMULPS       Y8, Y10, Y12
	VADDPS       Y12, Y3, Y3
	ADDQ         $4, SI
	ADDQ         AX, DI
	DECQ         CX
	JNZ          floop8

	VMOVUPS (DX), Y8
	VADDPS  Y8, Y0, Y0
	VMOVUPS (DX)(R10*1), Y9
	VADDPS  Y9, Y1, Y1
	VMOVUPS (DX)(R10*2), Y8
	VADDPS  Y8, Y2, Y2
	VMOVUPS (DX)(R11*1), Y9
	VADDPS  Y9, Y3, Y3

store8:
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, (DX)(R10*1)
	VMOVUPS Y2, (DX)(R10*2)
	VMOVUPS Y3, (DX)(R11*1)

done:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
