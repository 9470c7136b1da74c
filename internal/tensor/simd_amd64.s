#include "textflag.h"

// AVX2 micro-kernels under kernels.go. Every routine gives each of the eight
// lanes of a YMM register one independent output element and performs on it
// exactly the scalar kernel's operation sequence: one VMULPS and one VADDPS
// per term (never an FMA), terms in ascending reduction order. Loads and
// stores are unaligned; strides arrive in elements and are scaled to bytes
// here. Column counts are multiples of 8 (a remainder below 8 is ignored —
// the Go loops own it); columns go 32 at a time, then 8 at a time.

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
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// One term, unfused: acc += Y8 · (eight floats at off(BX)), the product
// rounded into tmp before the add.
#define TERM(off, tmp, acc) \
	VMULPS off(BX), Y8, tmp; \
	VADDPS tmp, acc, acc

// func accumAVX2(c, a *float32, aStride uintptr, b *float32, ldb, k, n, mode uintptr)
//
// c[j] = init + Σ_p a[p·aStride]·b[p·ldb+j] for j in [0,n), p ascending,
// a term skipped when its a element is ±0. mode picks init: +0 when 0 (the
// MatMul form), c[j] when 1 (the TMatMulAcc form). The skip test is
// bits(a)<<1 == 0 — ±0 and nothing else (NaN and subnormals have a low bit
// set), the scalar `av != 0`.
TEXT ·accumAVX2(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ aStride+16(FP), R8
	MOVQ b+24(FP), DX
	MOVQ ldb+32(FP), R9
	MOVQ n+48(FP), R10
	MOVQ mode+56(FP), R12
	SHLQ $2, R8
	SHLQ $2, R9

acc64:
	CMPQ R10, $64
	JLT  acc32
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	TESTQ R12, R12
	JZ    acc64start
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7
acc64start:
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ k+40(FP), R13
	TESTQ R13, R13
	JZ    acc64store
acc64term:
	MOVL (AX), CX
	ADDL CX, CX
	JZ   acc64next
	VBROADCASTSS (AX), Y8
	TERM(0, Y9, Y0)
	TERM(32, Y10, Y1)
	TERM(64, Y11, Y2)
	TERM(96, Y12, Y3)
	TERM(128, Y9, Y4)
	TERM(160, Y10, Y5)
	TERM(192, Y11, Y6)
	TERM(224, Y12, Y7)
acc64next:
	ADDQ R8, AX
	ADDQ R9, BX
	DECQ R13
	JNZ  acc64term
acc64store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, DX
	SUBQ $64, R10
	JMP  acc64

acc32:
	CMPQ R10, $32
	JLT  acc8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	TESTQ R12, R12
	JZ    acc32start
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
acc32start:
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ k+40(FP), R13
	TESTQ R13, R13
	JZ    acc32store
acc32term:
	MOVL (AX), CX
	ADDL CX, CX
	JZ   acc32next
	VBROADCASTSS (AX), Y8
	TERM(0, Y4, Y0)
	TERM(32, Y5, Y1)
	TERM(64, Y6, Y2)
	TERM(96, Y7, Y3)
acc32next:
	ADDQ R8, AX
	ADDQ R9, BX
	DECQ R13
	JNZ  acc32term
acc32store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $32, R10
	JMP  acc32

acc8:
	CMPQ R10, $8
	JLT  accdone
	VXORPS Y0, Y0, Y0
	TESTQ R12, R12
	JZ    acc8start
	VMOVUPS (DI), Y0
acc8start:
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ k+40(FP), R13
	TESTQ R13, R13
	JZ    acc8store
acc8term:
	MOVL (AX), CX
	ADDL CX, CX
	JZ   acc8next
	VBROADCASTSS (AX), Y8
	TERM(0, Y4, Y0)
acc8next:
	ADDQ R8, AX
	ADDQ R9, BX
	DECQ R13
	JNZ  acc8term
acc8store:
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $8, R10
	JMP  acc8

accdone:
	VZEROUPPER
	RET

// func dotColsAVX2(dst, x *float32, k uintptr, bt *float32, ldbt, n uintptr)
//
// dst[j] = Dot(x[0:k], column j of bt) for j in [0,n), with Dot's grouping
// reproduced per lane: for each four terms t = x0·b0; t += x1·b1;
// t += x2·b2; t += x3·b3; s += t — then the k mod 4 tail one term at a
// time, s += x·b. bt is the transposed operand (row p holds element p of
// every column), so the eight lanes load contiguously.
TEXT ·dotColsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ k+16(FP), CX
	MOVQ bt+24(FP), DX
	MOVQ ldbt+32(FP), R9
	MOVQ n+40(FP), R10
	SHLQ $2, R9
	MOVQ CX, R11
	ANDQ $3, R11 // tail terms
	SHRQ $2, CX  // groups of four

dot32:
	CMPQ R10, $32
	JLT  dot8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ CX, R13
	TESTQ R13, R13
	JZ    dot32tail
dot32group:
	VBROADCASTSS (AX), Y8
	VMULPS (BX), Y8, Y4
	VMULPS 32(BX), Y8, Y5
	VMULPS 64(BX), Y8, Y6
	VMULPS 96(BX), Y8, Y7
	ADDQ R9, BX
	VBROADCASTSS 4(AX), Y8
	TERM(0, Y9, Y4)
	TERM(32, Y10, Y5)
	TERM(64, Y11, Y6)
	TERM(96, Y12, Y7)
	ADDQ R9, BX
	VBROADCASTSS 8(AX), Y8
	TERM(0, Y9, Y4)
	TERM(32, Y10, Y5)
	TERM(64, Y11, Y6)
	TERM(96, Y12, Y7)
	ADDQ R9, BX
	VBROADCASTSS 12(AX), Y8
	TERM(0, Y9, Y4)
	TERM(32, Y10, Y5)
	TERM(64, Y11, Y6)
	TERM(96, Y12, Y7)
	ADDQ R9, BX
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3
	ADDQ $16, AX
	DECQ R13
	JNZ  dot32group
dot32tail:
	MOVQ R11, R13
	TESTQ R13, R13
	JZ    dot32store
dot32one:
	VBROADCASTSS (AX), Y8
	TERM(0, Y4, Y0)
	TERM(32, Y5, Y1)
	TERM(64, Y6, Y2)
	TERM(96, Y7, Y3)
	ADDQ R9, BX
	ADDQ $4, AX
	DECQ R13
	JNZ  dot32one
dot32store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $32, R10
	JMP  dot32

dot8:
	CMPQ R10, $8
	JLT  dotdone
	VXORPS Y0, Y0, Y0
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ CX, R13
	TESTQ R13, R13
	JZ    dot8tail
dot8group:
	VBROADCASTSS (AX), Y8
	VMULPS (BX), Y8, Y4
	ADDQ R9, BX
	VBROADCASTSS 4(AX), Y8
	TERM(0, Y9, Y4)
	ADDQ R9, BX
	VBROADCASTSS 8(AX), Y8
	TERM(0, Y9, Y4)
	ADDQ R9, BX
	VBROADCASTSS 12(AX), Y8
	TERM(0, Y9, Y4)
	ADDQ R9, BX
	VADDPS Y4, Y0, Y0
	ADDQ $16, AX
	DECQ R13
	JNZ  dot8group
dot8tail:
	MOVQ R11, R13
	TESTQ R13, R13
	JZ    dot8store
dot8one:
	VBROADCASTSS (AX), Y8
	TERM(0, Y4, Y0)
	ADDQ R9, BX
	ADDQ $4, AX
	DECQ R13
	JNZ  dot8one
dot8store:
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $8, R10
	JMP  dot8

dotdone:
	VZEROUPPER
	RET

// GROUP4 turns the product vectors of four entries a, b, c, d (eight columns
// each) into g = [Σa0…3 Σb0…3 Σc0…3 Σd0…3 | Σa4…7 Σb4…7 Σc4…7 Σd4…7], each Σ
// Dot's group ((p0+p1)+p2)+p3: a 4×4 transpose inside each 128-bit half puts
// one entry per lane and one column per register, so the three adds run
// lane-wise in the scalar order. Clobbers Y5–Y8.
#define GROUP4(a, b, c, d, g) \
	VUNPCKLPS b, a, Y5; \
	VUNPCKHPS b, a, Y6; \
	VUNPCKLPS d, c, Y7; \
	VUNPCKHPS d, c, Y8; \
	VSHUFPS $0x44, Y7, Y5, g; \
	VSHUFPS $0xEE, Y7, Y5, Y5; \
	VADDPS Y5, g, g; \
	VSHUFPS $0x44, Y8, Y6, Y5; \
	VADDPS Y5, g, g; \
	VSHUFPS $0xEE, Y8, Y6, Y6; \
	VADDPS Y6, g, g

// GTERM adds one entry's term to acc: Y8 (its broadcast weight) times eight
// columns of its row at off(CX), rounded into tmp before the add.
#define GTERM(off, tmp, acc) \
	VMULPS off(CX), Y8, tmp; \
	VADDPS tmp, acc, acc

// func csrAccumAVX2(acc *float32, ldacc uintptr, m *float32, ldm uintptr, w *float32, idx *int32, ptr *int32, rows, k uintptr)
//
// For every row t in [0,rows), rows of acc ldacc elements apart:
// acc[t·ldacc + j] += w[e]·m[idx[e]·ldm + j] for j in [0,k), e ascending
// over [ptr[t], ptr[t+1]) — accumAVX2's load form with the row named by an
// index and no term skipped, one row after another in one call. w and idx
// are indexed by entry position. Columns go 32, then 8 at a time; rows >= 1.
TEXT ·csrAccumAVX2(SB), NOSPLIT, $0-72
	MOVQ acc+0(FP), R8
	MOVQ ldm+24(FP), R9
	MOVQ w+32(FP), SI
	MOVQ idx+40(FP), BX
	MOVQ ptr+48(FP), R10
	MOVQ rows+56(FP), R12
	SHLQ $2, R9

carow:
	MOVQ R8, DI
	MOVQ m+16(FP), DX
	MOVQ k+64(FP), R13

ca32:
	CMPQ R13, $32
	JLT  ca8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	MOVLQSX (R10), AX
	JMP  ca32test
ca32term:
	MOVL (BX)(AX*4), CX
	IMULQ R9, CX
	ADDQ DX, CX
	VBROADCASTSS (SI)(AX*4), Y8
	GTERM(0, Y9, Y0)
	GTERM(32, Y10, Y1)
	GTERM(64, Y11, Y2)
	GTERM(96, Y12, Y3)
	INCQ AX
ca32test:
	CMPL AX, 4(R10)
	JLT  ca32term
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $32, R13
	JMP  ca32

ca8:
	TESTQ R13, R13
	JZ    canextrow
	VMOVUPS (DI), Y0
	MOVLQSX (R10), AX
	JMP  ca8test
ca8term:
	MOVL (BX)(AX*4), CX
	IMULQ R9, CX
	ADDQ DX, CX
	VBROADCASTSS (SI)(AX*4), Y8
	GTERM(0, Y9, Y0)
	INCQ AX
ca8test:
	CMPL AX, 4(R10)
	JLT  ca8term
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $8, R13
	JMP  ca8

canextrow:
	MOVQ ldacc+8(FP), AX
	SHLQ $2, AX
	ADDQ AX, R8
	ADDQ $4, R10
	DECQ R12
	JNZ  carow
	VZEROUPPER
	RET

// func tileDotsAVX2(dst *float32, ldd uintptr, x *float32, ldx uintptr, mT *float32, nr, nb, k uintptr)
//
// dst[r·ldd + 8b + l] = Dot(row r of x, key 8b+l) over k columns (a
// positive multiple of 4) for rows r < nr and key blocks b < nb, where mT
// holds each block of eight keys transposed, one key per lane:
// mT[(b·k + i)·8 + l] = key(8b+l)[i]. Each lane runs Dot's sequence — per
// four columns ((p0+p1)+p2)+p3 left to right, added to the running sum
// from +0 — with the row's column broadcast; the loops' trip counts are the
// call's, so nothing in it is data-dependent.
TEXT ·tileDotsAVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ x+16(FP), SI
	MOVQ ldx+24(FP), R9
	MOVQ nr+40(FP), R10
	SHLQ $2, R8
	SHLQ $2, R9
tdrow:
	MOVQ mT+32(FP), BX
	MOVQ DI, DX
	MOVQ nb+48(FP), R11
tdblock:
	VXORPS Y0, Y0, Y0
	MOVQ SI, AX
	MOVQ k+56(FP), R12
tdgroup:
	VBROADCASTSS (AX), Y1
	VMULPS (BX), Y1, Y1
	VBROADCASTSS 4(AX), Y2
	VMULPS 32(BX), Y2, Y2
	VADDPS Y2, Y1, Y1
	VBROADCASTSS 8(AX), Y2
	VMULPS 64(BX), Y2, Y2
	VADDPS Y2, Y1, Y1
	VBROADCASTSS 12(AX), Y2
	VMULPS 96(BX), Y2, Y2
	VADDPS Y2, Y1, Y1
	VADDPS Y1, Y0, Y0
	ADDQ $16, AX
	ADDQ $128, BX
	SUBQ $4, R12
	JNZ  tdgroup
	VMOVUPS Y0, (DX)
	ADDQ $32, DX
	DECQ R11
	JNZ  tdblock
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ R10
	JNZ  tdrow
	VZEROUPPER
	RET

// TTERM adds one tile term to acc: the weight at wsrc, broadcast, times Y8
// (eight columns of the key's row), rounded into Y9 before the add.
#define TTERM(wsrc, acc) \
	VBROADCASTSS wsrc, Y9; \
	VMULPS Y8, Y9, Y9; \
	VADDPS Y9, acc, acc

// func tileAccumAVX2(acc *float32, ldacc uintptr, w *float32, ldwr, ldwc uintptr, m *float32, ldm uintptr, nr, nc, k, keep uintptr)
//
// acc[r·ldacc + j] += w[r·ldwr + c·ldwc]·m[c·ldm + j] for r in [0,nr), j in
// [0,k) (a positive multiple of 8) and c ascending over [0,nc): accumAVX2's
// load form for nr rows at once, the weights of a row ldwc apart (1 for a
// row-major tile, its width for the transposed one). Four rows go together,
// one accumulator chain each, sharing every load of m; then single rows.
// keep = 0 skips a term whose weight is ±0, keep = 1 keeps every term.
// nr >= 1.
TEXT ·tileAccumAVX2(SB), NOSPLIT, $0-88
	MOVQ acc+0(FP), DI
	MOVQ ldacc+8(FP), R8
	MOVQ w+16(FP), SI
	MOVQ ldwr+24(FP), R9
	MOVQ ldm+48(FP), R10
	MOVQ nr+56(FP), R12
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10
	MOVQ ldwc+32(FP), AX // to bytes, in its slot: the term loops add it from there
	SHLQ $2, AX
	MOVQ AX, ldwc+32(FP)

ta4rows:
	CMPQ R12, $4
	JLT  ta1rows
	MOVQ m+40(FP), DX
	MOVQ k+72(FP), R11
ta4cols:
	LEAQ (DI)(R8*2), BX
	VMOVUPS (DI), Y0
	VMOVUPS (DI)(R8*1), Y1
	VMOVUPS (BX), Y2
	VMOVUPS (BX)(R8*1), Y3
	MOVQ SI, AX
	LEAQ (SI)(R9*2), BX
	MOVQ DX, CX
	MOVQ nc+64(FP), R13
	TESTQ R13, R13
	JZ    ta4store
	CMPQ keep+80(FP), $0
	JEQ  ta4skip
ta4keep:
	VMOVUPS (CX), Y8
	TTERM((AX), Y0)
	TTERM((AX)(R9*1), Y1)
	TTERM((BX), Y2)
	TTERM((BX)(R9*1), Y3)
	ADDQ ldwc+32(FP), AX
	ADDQ ldwc+32(FP), BX
	ADDQ R10, CX
	DECQ R13
	JNZ  ta4keep
	JMP  ta4store
ta4skip:
	VMOVUPS (CX), Y8
	TESTL $0x7fffffff, (AX)
	JZ    ta4s1
	TTERM((AX), Y0)
ta4s1:
	TESTL $0x7fffffff, (AX)(R9*1)
	JZ    ta4s2
	TTERM((AX)(R9*1), Y1)
ta4s2:
	TESTL $0x7fffffff, (BX)
	JZ    ta4s3
	TTERM((BX), Y2)
ta4s3:
	TESTL $0x7fffffff, (BX)(R9*1)
	JZ    ta4s4
	TTERM((BX)(R9*1), Y3)
ta4s4:
	ADDQ ldwc+32(FP), AX
	ADDQ ldwc+32(FP), BX
	ADDQ R10, CX
	DECQ R13
	JNZ  ta4skip
ta4store:
	LEAQ (DI)(R8*2), BX
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(R8*1)
	VMOVUPS Y2, (BX)
	VMOVUPS Y3, (BX)(R8*1)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $8, R11
	JNZ  ta4cols
	MOVQ k+72(FP), AX
	SHLQ $2, AX
	SUBQ AX, DI
	LEAQ (DI)(R8*4), DI
	LEAQ (SI)(R9*4), SI
	SUBQ $4, R12
	JMP  ta4rows

ta1rows:
	TESTQ R12, R12
	JZ    tadone
	MOVQ m+40(FP), DX
	MOVQ k+72(FP), R11
ta1cols:
	VMOVUPS (DI), Y0
	MOVQ SI, AX
	MOVQ DX, CX
	MOVQ nc+64(FP), R13
	TESTQ R13, R13
	JZ    ta1store
ta1term:
	CMPQ keep+80(FP), $0
	JNE  ta1add
	TESTL $0x7fffffff, (AX)
	JZ    ta1next
ta1add:
	VMOVUPS (CX), Y8
	TTERM((AX), Y0)
ta1next:
	ADDQ ldwc+32(FP), AX
	ADDQ R10, CX
	DECQ R13
	JNZ  ta1term
ta1store:
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $8, R11
	JNZ  ta1cols
	MOVQ k+72(FP), AX
	SHLQ $2, AX
	SUBQ AX, DI
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ R12
	JMP  ta1rows

tadone:
	VZEROUPPER
	RET

// PAIRPROD multiplies one entry's eight columns of a by the same eight
// columns of b: the rows named by the int32s at off(R8) and off(R9), lda and
// ldb bytes apart (R11, R12), from this column block's SI and BX.
#define PAIRPROD(off, dst) \
	MOVL off(R8), AX; \
	IMULQ R11, AX; \
	VMOVUPS (SI)(AX*1), dst; \
	MOVL off(R9), AX; \
	IMULQ R12, AX; \
	VMULPS (BX)(AX*1), dst, dst

// func pairDotsAVX2(dst, a *float32, lda uintptr, ai *int32, b *float32, ldb uintptr, bi *int32, n, k uintptr)
//
// dst[e] = Dot(row ai[e] of a, row bi[e] of b) over k columns for e in
// [0,n), rows lda and ldb elements apart, n a positive multiple of 4 and k a
// positive multiple of 8: column blocks of eight outside, groups of eight
// entries inside, GROUP4 and the sums in column order, so Dot's sequence per
// entry.
TEXT ·pairDotsAVX2(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ n+56(FP), R10
	VXORPS X0, X0, X0
pdzero:
	VMOVUPS X0, (DI)
	ADDQ $16, DI
	SUBQ $4, R10
	JNZ  pdzero
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R11
	MOVQ b+32(FP), BX
	MOVQ ldb+40(FP), R12
	SHLQ $2, R11
	SHLQ $2, R12
	MOVQ k+64(FP), R13

pdcols:
	MOVQ dst+0(FP), DI
	MOVQ ai+24(FP), R8
	MOVQ bi+48(FP), R9
	MOVQ n+56(FP), R10
pdgroup:
	CMPQ R10, $8
	JLT  pdfour
	PAIRPROD(0, Y1)
	PAIRPROD(4, Y2)
	PAIRPROD(8, Y3)
	PAIRPROD(12, Y4)
	GROUP4(Y1, Y2, Y3, Y4, Y9)
	PAIRPROD(16, Y1)
	PAIRPROD(20, Y2)
	PAIRPROD(24, Y3)
	PAIRPROD(28, Y4)
	GROUP4(Y1, Y2, Y3, Y4, Y10)
	VPERM2F128 $0x20, Y10, Y9, Y11
	VPERM2F128 $0x31, Y10, Y9, Y12
	VMOVUPS (DI), Y0
	VADDPS Y11, Y0, Y0
	VADDPS Y12, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	SUBQ $8, R10
	JMP  pdgroup
pdfour:
	TESTQ R10, R10
	JZ    pdnext
	PAIRPROD(0, Y1)
	PAIRPROD(4, Y2)
	PAIRPROD(8, Y3)
	PAIRPROD(12, Y4)
	GROUP4(Y1, Y2, Y3, Y4, Y9)
	VEXTRACTF128 $1, Y9, X10
	VMOVUPS (DI), X0
	VADDPS X9, X0, X0
	VADDPS X10, X0, X0
	VMOVUPS X0, (DI)
pdnext:
	ADDQ $32, SI
	ADDQ $32, BX
	SUBQ $8, R13
	JNZ  pdcols

	VZEROUPPER
	RET
