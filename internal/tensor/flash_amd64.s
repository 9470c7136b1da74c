#include "textflag.h"

// Row-block micro-kernels under flash.go. Each lane of a YMM register is one
// row of an eight-row block and runs the operation sequence of the Go loop
// that defines the kernel: one VMULPS and one VADDPS per term (never an
// FMA), terms in ascending order. Lane-interleaved operands (xT, dst, w,
// accT) advance 32 bytes per step; row-major operands arrive with their row
// stride in elements, scaled to bytes here. Loads and stores are unaligned.

// DOT8TERM: t = x·k for the element off(DX) of the key row, x in xr.
#define DOT8TERM(off, xr, t) \
	VBROADCASTSS off(DX), Y1; \
	VMULPS xr, Y1, t

// func flashDotsAVX2(dst, xT, m *float32, ldm, n, dh uintptr, scale float32, mode uintptr, a, b *float32)
//
// For each of n keys (rows of m, ldm apart, dh long), one lane-wise Dot of
// the block xT with the key row in Dot's grouping: for each four terms
// t = x0·k0; t += x1·k1; t += x2·k2; t += x3·k3; s += t — then the dh mod
// 4 tail one term at a time — from s = +0. Then, by mode:
//   0: s·scale, the running max over the keys (VMAXPS keeps the old value
//      unless the new one is greater: `>`, first wins, NaN never); after
//      the keys newM = max where greater than a, else a; b = a − newM;
//      a = newM; and a second pass adds −newM to every stored score.
//   1: s·scale + (−a).
//   2: b_j·(s − a)·scale, b advancing with the keys.
// At dh = 8 (the training head width) xT stays in registers across the keys.
TEXT ·flashDotsAVX2(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ xT+8(FP), SI
	MOVQ m+16(FP), DX
	MOVQ ldm+24(FP), R9
	SHLQ $2, R9
	MOVQ n+32(FP), R8
	MOVQ dh+40(FP), R11
	MOVQ R11, R12
	SHRQ $2, R11 // groups of four
	ANDQ $3, R12 // tail terms
	VBROADCASTSS scale+48(FP), Y15
	MOVQ mode+56(FP), R13
	MOVQ a+64(FP), R10
	MOVQ b+72(FP), R14
	VMOVUPS (R10), Y13
	VPCMPEQD Y12, Y12, Y12
	VPSLLD $31, Y12, Y12 // sign bits
	CMPQ R13, $1
	JNE  dotsinit
	VXORPS Y12, Y13, Y13 // mode 1 adds −a
dotsinit:
	VPCMPEQD Y14, Y14, Y14
	VPSLLD $23, Y14, Y14 // −Inf: the tile max before any key
	TESTQ R8, R8
	JZ    dotsend
	CMPQ dh+40(FP), $8
	JNE  dotskey
	VMOVUPS (SI), Y4
	VMOVUPS 32(SI), Y5
	VMOVUPS 64(SI), Y6
	VMOVUPS 96(SI), Y7
	VMOVUPS 128(SI), Y8
	VMOVUPS 160(SI), Y9
	VMOVUPS 192(SI), Y10
	VMOVUPS 224(SI), Y11
	JMP  dots8key

dotskey:
	VXORPS Y0, Y0, Y0
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R11, CX
	TESTQ CX, CX
	JZ    dotstail
dotsgroup:
	VBROADCASTSS (BX), Y1
	VMULPS (AX), Y1, Y2
	VBROADCASTSS 4(BX), Y1
	VMULPS 32(AX), Y1, Y3
	VADDPS Y3, Y2, Y2
	VBROADCASTSS 8(BX), Y1
	VMULPS 64(AX), Y1, Y3
	VADDPS Y3, Y2, Y2
	VBROADCASTSS 12(BX), Y1
	VMULPS 96(AX), Y1, Y3
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	ADDQ $16, BX
	ADDQ $128, AX
	DECQ CX
	JNZ  dotsgroup
dotstail:
	MOVQ R12, CX
	TESTQ CX, CX
	JZ    dotspost
dotsone:
	VBROADCASTSS (BX), Y1
	VMULPS (AX), Y1, Y2
	VADDPS Y2, Y0, Y0
	ADDQ $4, BX
	ADDQ $32, AX
	DECQ CX
	JNZ  dotsone
dotspost:
	// finish the key by mode, then on to the next key of the loop it came
	// from (the dh = 8 loop or the general one)
	CMPQ R13, $1
	JEQ  dotsshift
	JA   dotsds
	VMULPS Y15, Y0, Y0
	VMAXPS Y14, Y0, Y14
	JMP  dotsstore
dotsshift:
	VMULPS Y15, Y0, Y0
	VADDPS Y13, Y0, Y0
	JMP  dotsstore
dotsds:
	VSUBPS Y13, Y0, Y0
	VMOVUPS (R14), Y1
	VMULPS Y0, Y1, Y0
	VMULPS Y15, Y0, Y0
	ADDQ $32, R14
dotsstore:
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ R9, DX
	DECQ R8
	JZ   dotsend
	CMPQ dh+40(FP), $8
	JNE  dotskey

dots8key:
	DOT8TERM(0, Y4, Y2)
	DOT8TERM(4, Y5, Y3)
	VADDPS Y3, Y2, Y2
	DOT8TERM(8, Y6, Y3)
	VADDPS Y3, Y2, Y2
	DOT8TERM(12, Y7, Y3)
	VADDPS Y3, Y2, Y2
	VXORPS Y0, Y0, Y0
	VADDPS Y2, Y0, Y0
	DOT8TERM(16, Y8, Y2)
	DOT8TERM(20, Y9, Y3)
	VADDPS Y3, Y2, Y2
	DOT8TERM(24, Y10, Y3)
	VADDPS Y3, Y2, Y2
	DOT8TERM(28, Y11, Y3)
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	JMP  dotspost

dotsend:
	TESTQ R13, R13
	JNZ   dotsdone
	VMAXPS Y13, Y14, Y1 // newM
	VSUBPS Y1, Y13, Y2  // a − newM
	VMOVUPS Y2, (R14)
	VMOVUPS Y1, (R10)
	VXORPS Y12, Y1, Y1  // −newM
	MOVQ dst+0(FP), DI
	MOVQ n+32(FP), R8
	TESTQ R8, R8
	JZ    dotsdone
dotsrebase:
	VMOVUPS (DI), Y0
	VADDPS Y1, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	DECQ R8
	JNZ  dotsrebase
dotsdone:
	VZEROUPPER
	RET

// ACCKEY adds key j's term to the accumulator of one value column: Y9 holds
// the key's weights, off(BX) the column's element of the key's value row.
#define ACCKEY(off, acc) \
	VBROADCASTSS off(BX), Y10; \
	VMULPS Y10, Y9, Y11; \
	VADDPS Y11, acc, acc

// func flashAccumAVX2(accT, l, w, v *float32, ldv, n, dv uintptr, corr *float32)
//
// With corr: l = l·corr (when l is given) and accT = accT·corr. Then for
// each of n keys (rows of v, ldv apart, dv ≥ 1 long) in order: l += w_j and
// accT[x] += w_j·v_j[x]. Value columns go eight at a time (eight
// accumulator registers), then one at a time; each pass over the keys
// carries its own copy of the l chain from the same start, and stores it
// when l is given — every copy ends on the same bits.
TEXT ·flashAccumAVX2(SB), NOSPLIT, $0-64
	MOVQ accT+0(FP), DI
	MOVQ l+8(FP), R8
	MOVQ w+16(FP), SI
	MOVQ v+24(FP), DX
	MOVQ ldv+32(FP), R9
	SHLQ $2, R9
	MOVQ dv+48(FP), R10
	MOVQ corr+56(FP), AX
	VXORPS Y14, Y14, Y14
	TESTQ R8, R8
	JZ    accrescale
	VMOVUPS (R8), Y14
accrescale:
	TESTQ AX, AX
	JZ    acc8
	VMOVUPS (AX), Y15
	VMULPS Y15, Y14, Y14
	MOVQ DI, BX
	MOVQ R10, CX
accscale:
	VMOVUPS (BX), Y0
	VMULPS Y15, Y0, Y0
	VMOVUPS Y0, (BX)
	ADDQ $32, BX
	DECQ CX
	JNZ  accscale

acc8:
	CMPQ R10, $8
	JLT  acc1
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7
	VMOVAPS Y14, Y8
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ n+40(FP), CX
	TESTQ CX, CX
	JZ    acc8store
acc8key:
	VMOVUPS (AX), Y9
	VADDPS Y9, Y8, Y8
	ACCKEY(0, Y0)
	ACCKEY(4, Y1)
	ACCKEY(8, Y2)
	ACCKEY(12, Y3)
	ACCKEY(16, Y4)
	ACCKEY(20, Y5)
	ACCKEY(24, Y6)
	ACCKEY(28, Y7)
	ADDQ $32, AX
	ADDQ R9, BX
	DECQ CX
	JNZ  acc8key
acc8store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	TESTQ R8, R8
	JZ    acc8next
	VMOVUPS Y8, (R8)
acc8next:
	ADDQ $256, DI
	ADDQ $32, DX
	SUBQ $8, R10
	JMP  acc8

acc1:
	TESTQ R10, R10
	JZ    accdone
	VMOVUPS (DI), Y0
	VMOVAPS Y14, Y8
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ n+40(FP), CX
	TESTQ CX, CX
	JZ    acc1store
acc1key:
	VMOVUPS (AX), Y9
	VADDPS Y9, Y8, Y8
	ACCKEY(0, Y0)
	ADDQ $32, AX
	ADDQ R9, BX
	DECQ CX
	JNZ  acc1key
acc1store:
	VMOVUPS Y0, (DI)
	TESTQ R8, R8
	JZ    acc1next
	VMOVUPS Y8, (R8)
acc1next:
	ADDQ $32, DI
	ADDQ $4, DX
	DECQ R10
	JMP  acc1
accdone:
	VZEROUPPER
	RET

// SCATROW adds row r's term to Y0, a key row's eight columns: its weight
// broadcast from off(AX) times the row's eight columns in xr.
#define SCATROW(off, xr) \
	VBROADCASTSS off(AX), Y1; \
	VMULPS xr, Y1, Y2; \
	VADDPS Y2, Y0, Y0

// func flashScatterAVX2(m *float32, ldm uintptr, w, x *float32, ldx, nr, n, cols uintptr)
//
// m[j·ldm+c] += w[j·8+r]·x[r·ldx+c] for rows r ascending in [0,nr) (1 ≤ nr ≤
// 8), keys j in [0,n), columns c in [0,cols) (a multiple of 8). Per block of
// eight columns, a full block of rows keeps its eight row slices in
// registers across the keys; a ragged one walks its rows from memory.
TEXT ·flashScatterAVX2(SB), NOSPLIT, $0-64
	MOVQ m+0(FP), DI
	MOVQ ldm+8(FP), R9
	SHLQ $2, R9
	MOVQ w+16(FP), SI
	MOVQ x+24(FP), DX
	MOVQ ldx+32(FP), R10
	SHLQ $2, R10
	MOVQ nr+40(FP), R11
	MOVQ cols+56(FP), R12
	TESTQ R11, R11
	JZ    scatdone

scatcols:
	CMPQ R12, $8
	JLT  scatdone
	MOVQ DI, BX
	MOVQ SI, AX
	MOVQ n+48(FP), CX
	TESTQ CX, CX
	JZ    scatnext
	CMPQ R11, $8
	JNE  scatragged
	MOVQ DX, R13
	VMOVUPS (R13), Y8
	ADDQ R10, R13
	VMOVUPS (R13), Y9
	ADDQ R10, R13
	VMOVUPS (R13), Y10
	ADDQ R10, R13
	VMOVUPS (R13), Y11
	ADDQ R10, R13
	VMOVUPS (R13), Y12
	ADDQ R10, R13
	VMOVUPS (R13), Y13
	ADDQ R10, R13
	VMOVUPS (R13), Y14
	ADDQ R10, R13
	VMOVUPS (R13), Y15
scatkey8:
	VMOVUPS (BX), Y0
	SCATROW(0, Y8)
	SCATROW(4, Y9)
	SCATROW(8, Y10)
	SCATROW(12, Y11)
	SCATROW(16, Y12)
	SCATROW(20, Y13)
	SCATROW(24, Y14)
	SCATROW(28, Y15)
	VMOVUPS Y0, (BX)
	ADDQ $32, AX
	ADDQ R9, BX
	DECQ CX
	JNZ  scatkey8
	JMP  scatnext

scatragged:
	VMOVUPS (BX), Y0
	MOVQ DX, R13
	XORQ R14, R14
scatrow:
	VBROADCASTSS (AX)(R14*4), Y1
	VMULPS (R13), Y1, Y2
	VADDPS Y2, Y0, Y0
	ADDQ R10, R13
	INCQ R14
	CMPQ R14, R11
	JLT  scatrow
	VMOVUPS Y0, (BX)
	ADDQ $32, AX
	ADDQ R9, BX
	DECQ CX
	JNZ  scatragged

scatnext:
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $8, R12
	JMP  scatcols
scatdone:
	VZEROUPPER
	RET
