//go:build amd64 && !amd64.v3

#include "textflag.h"

// Four-lane float64 copies of math.Exp's amd64 FMA branch (math/exp_amd64.s,
// taken when the CPU has AVX and FMA) and of math.tanh's three branches.
// Every lane executes exactly the scalar instruction sequence, with the
// same constants, so each lane produces exactly the scalar bits; see
// transc_amd64.go. Only VEX-encoded instructions appear here: a legacy-SSE
// instruction between VEX ones costs an AVX state transition on many Intel
// cores.

// CONST4 defines a 32-byte read-only vector holding one float64 bit pattern
// in all four lanes, for use as a 256-bit memory operand.
#define CONST4(name, bits) \
	DATA name<>+0(SB)/8, $bits; \
	DATA name<>+8(SB)/8, $bits; \
	DATA name<>+16(SB)/8, $bits; \
	DATA name<>+24(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

// math.Exp's constants (exp_amd64.s: LOG2E, LN2U, LN2L, the reduction
// factor and the Taylor coefficients exprodata+0..64).
CONST4(expLog2e, 0x3ff71547652b82fe)
CONST4(expLn2U, 0x3fe62e42fefa3000)
CONST4(expLn2L, 0x3d53de6af278ece6)
CONST4(expSixteenth, 0x3fb0000000000000)
CONST4(expC64, 0x3efa01a01a01a01a)
CONST4(expC56, 0x3f2a01a01a01a01a)
CONST4(expC48, 0x3f56c16c16c16c17)
CONST4(expC40, 0x3f81111111111111)
CONST4(expC32, 0x3fa5555555555555)
CONST4(expC24, 0x3fc5555555555555)
CONST4(f64Half, 0x3fe0000000000000)
CONST4(f64One, 0x3ff0000000000000)
CONST4(f64Two, 0x4000000000000000)

// math.tanh's constants: 0.5·MAXLOG, the 0.625 branch edge, tanhP, tanhQ.
CONST4(tanhHalfMaxlog, 0x404601e678fc457b)
CONST4(tanhEdge, 0x3fe4000000000000)
CONST4(tanhP0, 0xbfeedc5baafd6f4b)
CONST4(tanhP1, 0xc058d26a0e26682d)
CONST4(tanhP2, 0xc0993ac030580563)
CONST4(tanhQ0, 0x405c33f28a581b86)
CONST4(tanhQ1, 0x40a176fa0e5535fa)
CONST4(tanhQ2, 0x40b2ec102442040c)

// The GELU constants: sqrt(2/π) and 0.044715.
CONST4(geluC0, 0x3fe9884533d43651)
CONST4(geluCubic, 0x3fa6e4e26d4801f7)

// Sign and magnitude masks for float64 lanes.
CONST4(f64Sign, 0x8000000000000000)
CONST4(f64Abs, 0x7fffffffffffffff)

// The float32 range the vector exp path accepts: (-708, 709). Inside it
// math.Exp takes neither its overflow nor its denormal branch.
DATA expRange<>+0(SB)/4, $-708.0
DATA expRange<>+4(SB)/4, $709.0
GLOBL expRange<>(SB), RODATA|NOPTR, $8

DATA expBias<>+0(SB)/4, $1023
DATA expBias<>+4(SB)/4, $1023
DATA expBias<>+8(SB)/4, $1023
DATA expBias<>+12(SB)/4, $1023
GLOBL expBias<>(SB), RODATA|NOPTR, $16

// EXP4 sets Y0 = exp(Y0) lane-wise for lanes inside (-708, 709), clobbering
// Y1 and X2. It is math.Exp's FMA branch instruction for instruction:
// n = round(x·LOG2E) (VCVTPD2DQ rounds per MXCSR, as CVTSD2SL does),
// x -= n·LN2U and x -= n·LN2L fused, x *= 1/16, the fused Taylor chain,
// three x = x·(x+2) steps and a fused x·(x+2)+1, then x·2ⁿ through the
// exponent bits.
#define EXP4 \
	VMULPD       expLog2e<>(SB), Y0, Y1; \
	VCVTPD2DQY   Y1, X2; \
	VCVTDQ2PD    X2, Y1; \
	VFNMADD231PD expLn2U<>(SB), Y1, Y0; \
	VFNMADD231PD expLn2L<>(SB), Y1, Y0; \
	VMULPD       expSixteenth<>(SB), Y0, Y0; \
	VMOVUPD      expC64<>(SB), Y1; \
	VFMADD213PD  expC56<>(SB), Y0, Y1; \
	VFMADD213PD  expC48<>(SB), Y0, Y1; \
	VFMADD213PD  expC40<>(SB), Y0, Y1; \
	VFMADD213PD  expC32<>(SB), Y0, Y1; \
	VFMADD213PD  expC24<>(SB), Y0, Y1; \
	VFMADD213PD  f64Half<>(SB), Y0, Y1; \
	VFMADD213PD  f64One<>(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       f64Two<>(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       f64Two<>(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       f64Two<>(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       f64Two<>(SB), Y0, Y1; \
	VFMADD213PD  f64One<>(SB), Y1, Y0; \
	VPADDD       expBias<>(SB), X2, X2; \
	VPMOVZXDQ    X2, Y1; \
	VPSLLQ       $52, Y1, Y1; \
	VMULPD       Y1, Y0, Y0

// func expSubAVX2(dst, src *float32, n int, sub float32) int
// dst[i] = float32(exp(float64(src[i]-sub))) four lanes at a time, for
// i < n (n a multiple of 4). Stops before the first group holding a lane
// outside (-708, 709) or a NaN and returns how many elements it wrote.
TEXT ·expSubAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS sub+24(FP), X7
	VBROADCASTSS expRange<>+0(SB), X6
	VBROADCASTSS expRange<>+4(SB), X5
	XORQ         AX, AX

expLoop:
	CMPQ      AX, CX
	JGE       expDone
	VMOVUPS   (SI)(AX*4), X0
	VSUBPS    X7, X0, X0
	VCMPPS    $0x11, X0, X6, X3 // -708 < x, ordered (false for NaN)
	VCMPPS    $0x11, X5, X0, X4 // x < 709, ordered
	VANDPS    X4, X3, X3
	VMOVMSKPS X3, BX
	CMPL      BX, $15
	JNE       expDone
	VCVTPS2PD X0, Y0
	EXP4
	VCVTPD2PSY Y0, X0
	VMOVUPS   X0, (DI)(AX*4)
	ADDQ      $4, AX
	JMP       expLoop

expDone:
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET

// func geluAVX2(xs *float32, n int)
// xs[i] = float32(0.5·x·(1 + tanh(c0·(x + 0.044715·x·x·x)))), x =
// float64(xs[i]), four lanes at a time for i < n (n a multiple of 4).
// math.tanh is Go code compiled without FMA, so everything outside the
// exp sequence uses separate VMULPD/VADDPD/VDIVPD in the scalar order.
// All three tanh branches are computed and merged with blend masks in
// the scalar precedence: |a| > 0.5·MAXLOG, else |a| ≥ 0.625, else the
// rational form. math.tanh returns a itself for a == ±0, where the
// rational form gives +0; GELU adds the result to 1, so both give the
// same bits and that case needs no blend.
TEXT ·geluAVX2(SB), NOSPLIT, $0-16
	MOVQ xs+0(FP), SI
	MOVQ n+8(FP), CX
	XORQ AX, AX

geluLoop:
	CMPQ AX, CX
	JGE  geluDone

	// a = c0·(x + ((0.044715·x)·x)·x)
	VCVTPS2PD (SI)(AX*4), Y8
	VMULPD    geluCubic<>(SB), Y8, Y9
	VMULPD    Y8, Y9, Y9
	VMULPD    Y8, Y9, Y9
	VADDPD    Y9, Y8, Y9
	VMULPD    geluC0<>(SB), Y9, Y9
	VANDPD    f64Abs<>(SB), Y9, Y10 // z = |a|
	VANDPD    f64Sign<>(SB), Y9, Y14 // sign of a

	// Rational branch: a + ((a·s)·P(s))/Q(s), s = a·a.
	VMULPD    Y9, Y9, Y3
	VMULPD    tanhP0<>(SB), Y3, Y4
	VADDPD    tanhP1<>(SB), Y4, Y4
	VMULPD    Y3, Y4, Y4
	VADDPD    tanhP2<>(SB), Y4, Y4
	VADDPD    tanhQ0<>(SB), Y3, Y5
	VMULPD    Y3, Y5, Y5
	VADDPD    tanhQ1<>(SB), Y5, Y5
	VMULPD    Y3, Y5, Y5
	VADDPD    tanhQ2<>(SB), Y5, Y5
	VMULPD    Y3, Y9, Y11
	VMULPD    Y4, Y11, Y11
	VDIVPD    Y5, Y11, Y11
	VADDPD    Y11, Y9, Y11

	// Exp branch: ±(1 - 2/(exp(2z)+1)) with the sign of a.
	VADDPD    Y10, Y10, Y0
	EXP4
	VADDPD    f64One<>(SB), Y0, Y0
	VMOVUPD   f64Two<>(SB), Y1
	VDIVPD    Y0, Y1, Y1
	VMOVUPD   f64One<>(SB), Y2
	VSUBPD    Y1, Y2, Y2
	VXORPD    Y14, Y2, Y2
	VCMPPD    $0x1d, tanhEdge<>(SB), Y10, Y12 // z >= 0.625, ordered
	VBLENDVPD Y12, Y2, Y11, Y11

	// Saturated branch: ±1 with the sign of a.
	VORPD     f64One<>(SB), Y14, Y2
	VCMPPD    $0x1e, tanhHalfMaxlog<>(SB), Y10, Y12 // z > 0.5·MAXLOG, ordered
	VBLENDVPD Y12, Y2, Y11, Y11

	// 0.5·x·(1 + t)
	VMULPD     f64Half<>(SB), Y8, Y8
	VADDPD     f64One<>(SB), Y11, Y11
	VMULPD     Y11, Y8, Y8
	VCVTPD2PSY Y8, X8
	VMOVUPS    X8, (SI)(AX*4)
	ADDQ       $4, AX
	JMP        geluLoop

geluDone:
	VZEROUPPER
	RET
