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
// c[j] = init + Σ_p a[p·aStride]·b[p·ldb+j] for j in [0,n), p ascending.
// mode bit 1 (load) picks init: +0 when clear, c[j] when set. mode bit 0
// (keep) picks the terms: when clear a term is skipped if its a element is
// ±0, when set no term is skipped. mode 0 is the MatMul form, 2 the TMatMulAcc
// form, 3 the WeightedRowSum form. One test serves the skip: skip when
// (bits(a)|keep)<<1 == 0 — with keep = 0 that is ±0 and nothing else (NaN and
// subnormals have a low bit set), the scalar `av != 0`; with keep = 1 it never
// holds.
TEXT ·accumAVX2(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ aStride+16(FP), R8
	MOVQ b+24(FP), DX
	MOVQ ldb+32(FP), R9
	MOVQ n+48(FP), R10
	MOVQ mode+56(FP), R11
	MOVQ R11, R12
	ANDQ $1, R11
	ANDQ $2, R12
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
	ORL  R11, CX
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
	ORL  R11, CX
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
	ORL  R11, CX
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

// func scatterAVX2(m *float32, ldm uintptr, w, x *float32, rows, n uintptr)
//
// m[r·ldm+j] += w[r]·x[j] for r in [0,rows), j in [0,n): one term per
// element, so there is no order to keep.
TEXT ·scatterAVX2(SB), NOSPLIT, $0-48
	MOVQ m+0(FP), DI
	MOVQ ldm+8(FP), R9
	MOVQ w+16(FP), SI
	MOVQ x+24(FP), DX
	MOVQ rows+32(FP), CX
	MOVQ n+40(FP), R10
	SHLQ $2, R9
	TESTQ CX, CX
	JZ    scatdone
scat8:
	CMPQ R10, $8
	JLT  scatdone
	VMOVUPS (DX), Y1
	MOVQ SI, AX
	MOVQ DI, BX
	MOVQ CX, R13
scatrow:
	VBROADCASTSS (AX), Y0
	VMULPS Y1, Y0, Y0
	VADDPS (BX), Y0, Y0
	VMOVUPS Y0, (BX)
	ADDQ $4, AX
	ADDQ R9, BX
	DECQ R13
	JNZ  scatrow
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $8, R10
	JMP  scat8
scatdone:
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

// ROWPROD multiplies x's eight columns (Y15) by the same eight columns of the
// row whose byte offset from BX is the uintptr at off(R10).
#define ROWPROD(off, dst) \
	MOVQ off(R10), AX; \
	VMULPS (BX)(AX*1), Y15, dst

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

// func gatherDotsAVX2(dst, x *float32, k uintptr, m *float32, off *uintptr, n uintptr)
//
// dst[e] = Dot(x[0:k], the k floats off[e] bytes into m) for e in [0,n), n a
// positive multiple of 4 and k a positive multiple of 8. Each lane of a running sum
// is one entry, and dst holds the sums between column blocks: per eight
// columns (outer loop) and group of eight entries (inner loop), GROUP4 forms
// the four-term groups of the first and second four columns for entries 0–3
// and 4–7, VPERM2F128 regroups them into one register per column half, and
// they are added to the group's sum in column order — s += g0; s += g1 —
// which is Dot's sequence, group by group. A last group of four runs the
// same steps on one GROUP4 and 128-bit sums. Sums start from +0. Column
// blocks outside, groups inside: the groups' sums are independent chains
// the CPU can overlap, where one group's pass over all its columns would be
// one long chain of dependent adds.
TEXT ·gatherDotsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ n+40(FP), R11
	VXORPS X0, X0, X0
gdzero:
	VMOVUPS X0, (DI)
	ADDQ $16, DI
	SUBQ $4, R11
	JNZ  gdzero
	MOVQ x+8(FP), CX
	MOVQ m+24(FP), BX
	MOVQ k+16(FP), R12

gdcols:
	VMOVUPS (CX), Y15
	MOVQ dst+0(FP), DI
	MOVQ off+32(FP), R10
	MOVQ n+40(FP), R11
gdgroup:
	CMPQ R11, $8
	JLT  gdfour
	ROWPROD(0, Y1)
	ROWPROD(8, Y2)
	ROWPROD(16, Y3)
	ROWPROD(24, Y4)
	GROUP4(Y1, Y2, Y3, Y4, Y9)
	ROWPROD(32, Y1)
	ROWPROD(40, Y2)
	ROWPROD(48, Y3)
	ROWPROD(56, Y4)
	GROUP4(Y1, Y2, Y3, Y4, Y10)
	VPERM2F128 $0x20, Y10, Y9, Y11
	VPERM2F128 $0x31, Y10, Y9, Y12
	VMOVUPS (DI), Y0
	VADDPS Y11, Y0, Y0
	VADDPS Y12, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $64, R10
	SUBQ $8, R11
	JMP  gdgroup
gdfour:
	TESTQ R11, R11
	JZ    gdnext
	ROWPROD(0, Y1)
	ROWPROD(8, Y2)
	ROWPROD(16, Y3)
	ROWPROD(24, Y4)
	GROUP4(Y1, Y2, Y3, Y4, Y9)
	VEXTRACTF128 $1, Y9, X10
	VMOVUPS (DI), X0
	VADDPS X9, X0, X0
	VADDPS X10, X0, X0
	VMOVUPS X0, (DI)
gdnext:
	ADDQ $32, CX
	ADDQ $32, BX
	SUBQ $8, R12
	JNZ  gdcols

	VZEROUPPER
	RET

// GTERM adds one entry's term to acc: Y8 (its broadcast weight) times eight
// columns of its row at off(CX), rounded into tmp before the add.
#define GTERM(off, tmp, acc) \
	VMULPS off(CX), Y8, tmp; \
	VADDPS tmp, acc, acc

// func gatherAccumAVX2(acc, m *float32, ldm uintptr, w *float32, idx *int32, k, n, keep uintptr)
//
// acc[j] += w[e]·m[idx[e]·ldm + j] for j in [0,n), e ascending over [0,k):
// accumAVX2's load form with the row named by an index. keep = 0 skips a
// term whose weight is ±0 (the same test as accumAVX2), keep = 1 keeps
// every term.
TEXT ·gatherAccumAVX2(SB), NOSPLIT, $0-64
	MOVQ acc+0(FP), DI
	MOVQ m+8(FP), DX
	MOVQ ldm+16(FP), R9
	MOVQ w+24(FP), SI
	MOVQ idx+32(FP), R8
	MOVQ n+48(FP), R10
	MOVQ keep+56(FP), R11
	SHLQ $2, R9

ga64:
	CMPQ R10, $64
	JLT  ga32
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7
	MOVQ SI, AX
	MOVQ R8, BX
	MOVQ k+40(FP), R13
ga64term:
	MOVL (AX), CX
	ORL  R11, CX
	ADDL CX, CX
	JZ   ga64next
	MOVL (BX), CX
	IMULQ R9, CX
	ADDQ DX, CX
	VBROADCASTSS (AX), Y8
	GTERM(0, Y9, Y0)
	GTERM(32, Y10, Y1)
	GTERM(64, Y11, Y2)
	GTERM(96, Y12, Y3)
	GTERM(128, Y9, Y4)
	GTERM(160, Y10, Y5)
	GTERM(192, Y11, Y6)
	GTERM(224, Y12, Y7)
ga64next:
	ADDQ $4, AX
	ADDQ $4, BX
	DECQ R13
	JNZ  ga64term
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
	JMP  ga64

ga32:
	CMPQ R10, $32
	JLT  ga8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	MOVQ SI, AX
	MOVQ R8, BX
	MOVQ k+40(FP), R13
ga32term:
	MOVL (AX), CX
	ORL  R11, CX
	ADDL CX, CX
	JZ   ga32next
	MOVL (BX), CX
	IMULQ R9, CX
	ADDQ DX, CX
	VBROADCASTSS (AX), Y8
	GTERM(0, Y9, Y0)
	GTERM(32, Y10, Y1)
	GTERM(64, Y11, Y2)
	GTERM(96, Y12, Y3)
ga32next:
	ADDQ $4, AX
	ADDQ $4, BX
	DECQ R13
	JNZ  ga32term
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $32, R10
	JMP  ga32

ga8:
	CMPQ R10, $8
	JLT  gadone
	VMOVUPS (DI), Y0
	MOVQ SI, AX
	MOVQ R8, BX
	MOVQ k+40(FP), R13
ga8term:
	MOVL (AX), CX
	ORL  R11, CX
	ADDL CX, CX
	JZ   ga8next
	MOVL (BX), CX
	IMULQ R9, CX
	ADDQ DX, CX
	VBROADCASTSS (AX), Y8
	GTERM(0, Y9, Y0)
ga8next:
	ADDQ $4, AX
	ADDQ $4, BX
	DECQ R13
	JNZ  ga8term
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $8, R10
	JMP  ga8

gadone:
	VZEROUPPER
	RET
