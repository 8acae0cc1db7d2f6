//go:build amd64

#include "textflag.h"

// func cpuidex(leaf, sub uint32) (ax, bx, cx, dx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, ax+8(FP)
	MOVL BX, bx+12(FP)
	MOVL CX, cx+16(FP)
	MOVL DX, dx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpyAVX2(dst, src *float32, n int, alpha float32)
// dst[i] += alpha*src[i], 8 lanes per iteration. Product and add round
// separately (VMULPS then VADDPS) exactly like the scalar loop.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-28
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS alpha+24(FP), Y0
axpyloop:
	CMPQ CX, $8
	JLT  axpydone
	VMOVUPS (SI), Y1
	VMULPS  Y1, Y0, Y1
	VMOVUPS (DI), Y2
	VADDPS  Y1, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  axpyloop
axpydone:
	VZEROUPPER
	RET

// func matmulRowAVX2(o, a, b *float32, k, c, lda int)
// o[j] += Σ_p a[p·lda]·b[p·c+j] for j < c&^3, p < k (k ≥ 1). The output
// row stays in registers for the whole p loop: 32 columns in four YMM
// accumulators, then 8 in one, then 4 in an XMM. Each term is a
// broadcast a[p] times a row segment of b, VMULPS then VADDPS onto the
// accumulator — one rounding per product and per add, ascending p — and
// a term is skipped exactly when a[p] is ±0 (VUCOMISS sets ZF and PF for
// NaN, so a NaN a[p] is still added), the scalar loop's zero-skip.
TEXT ·matmulRowAVX2(SB), NOSPLIT, $0-48
	MOVQ   o+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   b+16(FP), DX
	MOVQ   k+24(FP), R8
	MOVQ   c+32(FP), R9
	MOVQ   lda+40(FP), R10
	SHLQ   $2, R10            // a stride in bytes
	LEAQ   (R9*4), R11        // b row stride in bytes
	VXORPS X15, X15, X15
	XORQ   BX, BX             // first column of the current block

row32:
	LEAQ    32(BX), AX
	CMPQ    AX, R9
	JGT     row8
	VMOVUPS (DI)(BX*4), Y0
	VMOVUPS 32(DI)(BX*4), Y1
	VMOVUPS 64(DI)(BX*4), Y2
	VMOVUPS 96(DI)(BX*4), Y3
	MOVQ    SI, R12
	LEAQ    (DX)(BX*4), R13
	MOVQ    R8, CX

k32:
	VMOVSS   (R12), X4
	VUCOMISS X15, X4
	JNE      add32
	JPS      add32
	JMP      next32

add32:
	VBROADCASTSS X4, Y4
	VMULPS       (R13), Y4, Y5
	VADDPS       Y5, Y0, Y0
	VMULPS       32(R13), Y4, Y6
	VADDPS       Y6, Y1, Y1
	VMULPS       64(R13), Y4, Y7
	VADDPS       Y7, Y2, Y2
	VMULPS       96(R13), Y4, Y8
	VADDPS       Y8, Y3, Y3

next32:
	ADDQ    R10, R12
	ADDQ    R11, R13
	DECQ    CX
	JNZ     k32
	VMOVUPS Y0, (DI)(BX*4)
	VMOVUPS Y1, 32(DI)(BX*4)
	VMOVUPS Y2, 64(DI)(BX*4)
	VMOVUPS Y3, 96(DI)(BX*4)
	MOVQ    AX, BX
	JMP     row32

row8:
	LEAQ    8(BX), AX
	CMPQ    AX, R9
	JGT     row4
	VMOVUPS (DI)(BX*4), Y0
	MOVQ    SI, R12
	LEAQ    (DX)(BX*4), R13
	MOVQ    R8, CX

k8:
	VMOVSS   (R12), X4
	VUCOMISS X15, X4
	JNE      add8
	JPS      add8
	JMP      next8

add8:
	VBROADCASTSS X4, Y4
	VMULPS       (R13), Y4, Y5
	VADDPS       Y5, Y0, Y0

next8:
	ADDQ    R10, R12
	ADDQ    R11, R13
	DECQ    CX
	JNZ     k8
	VMOVUPS Y0, (DI)(BX*4)
	MOVQ    AX, BX
	JMP     row8

row4:
	LEAQ    4(BX), AX
	CMPQ    AX, R9
	JGT     rowDone
	VMOVUPS (DI)(BX*4), X0
	MOVQ    SI, R12
	LEAQ    (DX)(BX*4), R13
	MOVQ    R8, CX

k4:
	VMOVSS   (R12), X4
	VUCOMISS X15, X4
	JNE      add4
	JPS      add4
	JMP      next4

add4:
	VBROADCASTSS X4, X4
	VMULPS       (R13), X4, X5
	VADDPS       X5, X0, X0

next4:
	ADDQ    R10, R12
	ADDQ    R11, R13
	DECQ    CX
	JNZ     k4
	VMOVUPS X0, (DI)(BX*4)

rowDone:
	VZEROUPPER
	RET
