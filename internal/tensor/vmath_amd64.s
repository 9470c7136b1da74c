#include "textflag.h"

// Lane-wise exp / tanh-GELU under the reference row ops. Four float32 inputs
// are widened to the four float64 lanes of a YMM register and each lane runs
// the IEEE operation sequence the scalar reference runs on this machine:
//
//   - exp: the `avxfma` path of Go's math/exp_amd64.s (Shibata/SLEEF), which
//     is what math.Exp executes whenever CPUID reports AVX+FMA — the same
//     predicate that selects these kernels. Same constants, same multiplies,
//     same fused multiply-adds in the same places, one lane instead of four.
//   - tanh: pure-Go math.tanh as the compiler emits it on amd64 — separate
//     multiplies and adds; Go fuses no x*y+z there at any GOAMD64 level. Its
//     three branches are all evaluated and blended per lane; lanes a branch
//     does not own compute garbage that is dropped.
//
// Every constant is stored four times over so it can be a 256-bit memory
// operand. Counts are multiples of 4 (a remainder is ignored — the Go loops
// own it).

#define D4(i, v) \
	DATA vm<>+(i*32+0)(SB)/8, v; \
	DATA vm<>+(i*32+8)(SB)/8, v; \
	DATA vm<>+(i*32+16)(SB)/8, v; \
	DATA vm<>+(i*32+24)(SB)/8, v
#define K(i) vm<>+(i*32)(SB)

// math/exp_amd64.s
D4(0, $1.4426950408889634073599246810018920) // LOG2E
D4(1, $0.69314718055966295651160180568695068359375) // LN2U
D4(2, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
D4(3, $0.0625)
D4(4, $2.4801587301587301587e-5)
D4(5, $1.9841269841269841270e-4)
D4(6, $1.3888888888888888889e-3)
D4(7, $8.3333333333333333333e-3)
D4(8, $4.1666666666666666667e-2)
D4(9, $1.6666666666666666667e-1)
D4(10, $0.5)
D4(11, $1.0)
D4(12, $2.0)
D4(13, $0x3FF) // exponent bias, as int64
// math/tanh.go
D4(14, $0x7FFFFFFFFFFFFFFF) // |x|
D4(15, $0x8000000000000000) // sign(x)
D4(16, $-9.64399179425052238628e-1) // tanhP
D4(17, $-9.92877231001918586564e1)
D4(18, $-1.61468768441708447952e3)
D4(19, $1.12811678491632931402e2) // tanhQ
D4(20, $2.23548839060100448583e3)
D4(21, $4.84406305325125486048e3)
D4(22, $0.625)
D4(23, $4.4014845965556527147994e+01) // 0.5*MAXLOG
// gelu.go
D4(24, $0.044715)
D4(25, $0.7978845608028654) // geluC
D4(26, $0.134145) // 3*0.044715, folded exactly as the compiler folds it
GLOBL vm<>(SB), RODATA|NOPTR, $864

#define kLOG2E K(0)
#define kLN2U K(1)
#define kLN2L K(2)
#define kSixteenth K(3)
#define kHalf K(10)
#define kOne K(11)
#define kTwo K(12)
#define kBias K(13)
#define kAbs K(14)
#define kSign K(15)
#define kP0 K(16)
#define kP1 K(17)
#define kP2 K(18)
#define kQ0 K(19)
#define kQ1 K(20)
#define kQ2 K(21)
#define kMid K(22)
#define kBig K(23)
#define kCube K(24)
#define kGeluC K(25)
#define kCube3 K(26)

// Exponent range of a normal float64 result, as int32 lanes: the scalar code
// leaves its main path when e+0x3FF <= 0 (denormal/underflow) or >= 0x7FF
// (overflow), i.e. unless -1023 < e < 1024.
DATA vmexp<>+0(SB)/4, $-1023
DATA vmexp<>+4(SB)/4, $-1023
DATA vmexp<>+8(SB)/4, $-1023
DATA vmexp<>+12(SB)/4, $-1023
DATA vmexp<>+16(SB)/4, $1024
DATA vmexp<>+20(SB)/4, $1024
DATA vmexp<>+24(SB)/4, $1024
DATA vmexp<>+28(SB)/4, $1024
GLOBL vmexp<>(SB), RODATA|NOPTR, $32

// EXPFR: Y5 = x in, Y5 = the fraction fr out and X8 = the int32 exponents e,
// with exp(x) = fr·2^e. Clobbers Y6, Y7. Line for line the avxfma path.
#define EXPFR \
	VMULPD kLOG2E, Y5, Y6; \
	VCVTPD2DQY Y6, X8; \
	VCVTDQ2PD X8, Y7; \
	VFNMADD231PD kLN2U, Y7, Y5; \
	VFNMADD231PD kLN2L, Y7, Y5; \
	VMULPD kSixteenth, Y5, Y5; \
	VMOVUPD K(4), Y6; \
	VFMADD213PD K(5), Y5, Y6; \
	VFMADD213PD K(6), Y5, Y6; \
	VFMADD213PD K(7), Y5, Y6; \
	VFMADD213PD K(8), Y5, Y6; \
	VFMADD213PD K(9), Y5, Y6; \
	VFMADD213PD kHalf, Y5, Y6; \
	VFMADD213PD kOne, Y5, Y6; \
	VMULPD Y6, Y5, Y5; \
	VADDPD kTwo, Y5, Y6; \
	VMULPD Y6, Y5, Y5; \
	VADDPD kTwo, Y5, Y6; \
	VMULPD Y6, Y5, Y5; \
	VADDPD kTwo, Y5, Y6; \
	VMULPD Y6, Y5, Y5; \
	VADDPD kTwo, Y5, Y6; \
	VFMADD213PD kOne, Y6, Y5

// EXPFR2 is EXPFR on two groups at once, instruction by instruction: the
// first in Y5 (clobbering Y6, Y7; exponents to X8), the second in Y10
// (clobbering Y2, Y3; exponents to X15). Each group runs EXPFR's sequence
// unchanged; interleaving only gives the CPU two independent chains.
#define EXPFR2 \
	VMULPD kLOG2E, Y5, Y6; \
	VMULPD kLOG2E, Y10, Y2; \
	VCVTPD2DQY Y6, X8; \
	VCVTPD2DQY Y2, X15; \
	VCVTDQ2PD X8, Y7; \
	VCVTDQ2PD X15, Y3; \
	VFNMADD231PD kLN2U, Y7, Y5; \
	VFNMADD231PD kLN2U, Y3, Y10; \
	VFNMADD231PD kLN2L, Y7, Y5; \
	VFNMADD231PD kLN2L, Y3, Y10; \
	VMULPD kSixteenth, Y5, Y5; \
	VMULPD kSixteenth, Y10, Y10; \
	VMOVUPD K(4), Y6; \
	VMOVUPD K(4), Y2; \
	VFMADD213PD K(5), Y5, Y6; \
	VFMADD213PD K(5), Y10, Y2; \
	VFMADD213PD K(6), Y5, Y6; \
	VFMADD213PD K(6), Y10, Y2; \
	VFMADD213PD K(7), Y5, Y6; \
	VFMADD213PD K(7), Y10, Y2; \
	VFMADD213PD K(8), Y5, Y6; \
	VFMADD213PD K(8), Y10, Y2; \
	VFMADD213PD K(9), Y5, Y6; \
	VFMADD213PD K(9), Y10, Y2; \
	VFMADD213PD kHalf, Y5, Y6; \
	VFMADD213PD kHalf, Y10, Y2; \
	VFMADD213PD kOne, Y5, Y6; \
	VFMADD213PD kOne, Y10, Y2; \
	VMULPD Y6, Y5, Y5; \
	VMULPD Y2, Y10, Y10; \
	VADDPD kTwo, Y5, Y6; \
	VADDPD kTwo, Y10, Y2; \
	VMULPD Y6, Y5, Y5; \
	VMULPD Y2, Y10, Y10; \
	VADDPD kTwo, Y5, Y6; \
	VADDPD kTwo, Y10, Y2; \
	VMULPD Y6, Y5, Y5; \
	VMULPD Y2, Y10, Y10; \
	VADDPD kTwo, Y5, Y6; \
	VADDPD kTwo, Y10, Y2; \
	VMULPD Y6, Y5, Y5; \
	VMULPD Y2, Y10, Y10; \
	VADDPD kTwo, Y5, Y6; \
	VADDPD kTwo, Y10, Y2; \
	VFMADD213PD kOne, Y6, Y5; \
	VFMADD213PD kOne, Y2, Y10

// EXPSCALE: Y5 = fr·2^e for exponents X8 inside the normal range (the
// scalar `lastStep`: bias, shift into the exponent field, one multiply).
#define EXPSCALE \
	VPMOVSXDQ X8, Y7; \
	VPADDQ kBias, Y7, Y7; \
	VPSLLQ $52, Y7, Y7; \
	VMULPD Y7, Y5, Y5

// func expLanesAVX2(dst, src *float32, n uintptr, shift, cut float32) uintptr
//
// dst[i] = float32(exp(float64(src[i]+shift))), or 0 where src[i]+shift <=
// cut, from i = 0: eight at a time (two groups of four through EXPFR2), then
// four at a time. Stops in front of the first group holding a lane (not
// cut) whose exponent is outside the normal range — NaN, ±Inf and
// everything too large convert to the integer indefinite, which is outside
// it too — and returns how many elements it wrote. An eight-wide step that
// meets such a group writes nothing and hands over to the four-wide loop,
// which redoes its first group and stops where it must.
TEXT ·expLanesAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS shift+24(FP), X14
	VBROADCASTSS cut+28(FP), X13
	VMOVDQU vmexp<>+0(SB), X12
	VMOVDQU vmexp<>+16(SB), X11
	XORQ AX, AX
exp8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JA   exp4
	VMOVUPS (SI)(AX*4), X0
	VMOVUPS 16(SI)(AX*4), X4
	VADDPS X14, X0, X0
	VADDPS X14, X4, X4
	VCMPPS $2, X13, X0, X1 // x <= cut
	VCMPPS $2, X13, X4, X9
	VCVTPS2PD X0, Y5
	VCVTPS2PD X4, Y10
	EXPFR2
	VPCMPGTD X12, X8, X0 // e > -1023
	VPCMPGTD X8, X11, X6 // 1024 > e
	VPAND X6, X0, X0
	VPOR X1, X0, X0
	VPCMPGTD X12, X15, X4
	VPCMPGTD X15, X11, X2
	VPAND X2, X4, X4
	VPOR X9, X4, X4
	VPAND X4, X0, X0
	VMOVMSKPS X0, DX
	CMPL DX, $15
	JNE  exp4
	EXPSCALE
	VPMOVSXDQ X15, Y3
	VPADDQ kBias, Y3, Y3
	VPSLLQ $52, Y3, Y3
	VMULPD Y3, Y10, Y10
	VCVTPD2PSY Y5, X0
	VCVTPD2PSY Y10, X4
	VANDNPS X0, X1, X0
	VANDNPS X4, X9, X4
	VMOVUPS X0, (DI)(AX*4)
	VMOVUPS X4, 16(DI)(AX*4)
	ADDQ $8, AX
	JMP  exp8
exp4:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JA   expdone
	VMOVUPS (SI)(AX*4), X0
	VADDPS X14, X0, X0
	VCMPPS $2, X13, X0, X1 // x <= cut
	VCVTPS2PD X0, Y5
	EXPFR
	VPCMPGTD X12, X8, X2 // e > -1023
	VPCMPGTD X8, X11, X3 // 1024 > e
	VPAND X3, X2, X2
	VPOR X1, X2, X2
	VMOVMSKPS X2, DX
	CMPL DX, $15
	JNE  expdone
	EXPSCALE
	VCVTPD2PSY Y5, X0
	VANDNPS X0, X1, X0
	VMOVUPS X0, (DI)(AX*4)
	ADDQ $4, AX
	JMP  exp4
expdone:
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET

// GELUINNER: Y1 = geluC·(x + 0.044715·x·x·x) for x in Y0, products taken left
// to right as gelu.go writes them.
#define GELUINNER \
	VMULPD kCube, Y0, Y1; \
	VMULPD Y0, Y1, Y1; \
	VMULPD Y0, Y1, Y1; \
	VADDPD Y1, Y0, Y1; \
	VMULPD kGeluC, Y1, Y1

// TANH: Y4 = tanh(Y1). Clobbers Y2–Y9. The rational branch (|w| < 0.625),
// the exp branch 1 − 2/(exp(2|w|)+1) with w's sign (its exponent is at most
// 127, always normal) and ±1 beyond 0.5·MAXLOG are blended by ordered
// compares, so a NaN takes the rational branch and comes out a NaN, as in
// math.tanh. The `x == 0 → x` branch is left out: the rational form returns
// +0 for −0, and both callers use t only as 1+t and t·t, where the sign of a
// zero cannot show.
#define TANH \
	VANDPD kAbs, Y1, Y2; \
	VMULPD Y1, Y1, Y3; \
	VMULPD kP0, Y3, Y4; \
	VADDPD kP1, Y4, Y4; \
	VMULPD Y3, Y4, Y4; \
	VADDPD kP2, Y4, Y4; \
	VADDPD kQ0, Y3, Y9; \
	VMULPD Y3, Y9, Y9; \
	VADDPD kQ1, Y9, Y9; \
	VMULPD Y3, Y9, Y9; \
	VADDPD kQ2, Y9, Y9; \
	VMULPD Y3, Y1, Y3; \
	VMULPD Y4, Y3, Y3; \
	VDIVPD Y9, Y3, Y3; \
	VADDPD Y3, Y1, Y4; \
	VADDPD Y2, Y2, Y5; \
	EXPFR; \
	EXPSCALE; \
	VADDPD kOne, Y5, Y5; \
	VMOVUPD kTwo, Y6; \
	VDIVPD Y5, Y6, Y6; \
	VMOVUPD kOne, Y5; \
	VSUBPD Y6, Y5, Y6; \
	VANDPD kSign, Y1, Y7; \
	VORPD Y7, Y6, Y6; \
	VCMPPD $13, kMid, Y2, Y3; \
	VBLENDVPD Y3, Y6, Y4, Y4; \
	VORPD kOne, Y7, Y6; \
	VCMPPD $14, kBig, Y2, Y3; \
	VBLENDVPD Y3, Y6, Y4, Y4

// func geluAVX2(y, u, bias *float32, n uintptr)
//
// z = u[j]+bias[j] (float32), u[j] = z, y[j] = float32(GELU(float64(z))) with
// GELU(x) = 0.5·x·(1 + tanh(inner)).
TEXT ·geluAVX2(SB), NOSPLIT, $0-32
	MOVQ y+0(FP), DI
	MOVQ u+8(FP), SI
	MOVQ bias+16(FP), BX
	MOVQ n+24(FP), CX
	XORQ AX, AX
gelu4:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JA   geludone
	VMOVUPS (SI)(AX*4), X0
	VADDPS (BX)(AX*4), X0, X0
	VMOVUPS X0, (SI)(AX*4)
	VCVTPS2PD X0, Y0
	GELUINNER
	TANH
	VADDPD kOne, Y4, Y4
	VMULPD kHalf, Y0, Y0
	VMULPD Y4, Y0, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS X0, (DI)(AX*4)
	ADDQ $4, AX
	JMP  gelu4
geludone:
	VZEROUPPER
	RET

// func geluGradAVX2(dz, z, dy *float32, n uintptr)
//
// dz[j] = dy[j]·float32(GELUGrad(float64(z[j]))) with GELUGrad(x) =
// 0.5·(1+t) + 0.5·x·(1−t·t)·dInner, t = tanh(inner),
// dInner = geluC·(1 + 3·0.044715·x·x).
TEXT ·geluGradAVX2(SB), NOSPLIT, $0-32
	MOVQ dz+0(FP), DI
	MOVQ z+8(FP), SI
	MOVQ dy+16(FP), BX
	MOVQ n+24(FP), CX
	XORQ AX, AX
grad4:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JA   graddone
	VMOVUPS (SI)(AX*4), X0
	VCVTPS2PD X0, Y0
	GELUINNER
	TANH
	VMULPD kCube3, Y0, Y2
	VMULPD Y0, Y2, Y2
	VADDPD kOne, Y2, Y2
	VMULPD kGeluC, Y2, Y2 // dInner
	VADDPD kOne, Y4, Y3
	VMULPD kHalf, Y3, Y3 // 0.5·(1+t)
	VMULPD Y4, Y4, Y5
	VMOVUPD kOne, Y6
	VSUBPD Y5, Y6, Y5 // 1 − t·t
	VMULPD kHalf, Y0, Y0
	VMULPD Y5, Y0, Y0
	VMULPD Y2, Y0, Y0
	VADDPD Y0, Y3, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS (BX)(AX*4), X1
	VMULPS X0, X1, X0
	VMOVUPS X0, (DI)(AX*4)
	ADDQ $4, AX
	JMP  grad4
graddone:
	VZEROUPPER
	RET
