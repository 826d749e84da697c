//go:build amd64 && !noasm

#include "textflag.h"

// func fusedTickBatch64(m *float64, cols int, x *float64, xStride int, bias *float64, y *float64, k int)
//
// For each lane l in [0,k):
//
//	y[l·64 : l·64+64] = bias[l·64 : l·64+64] + Σ_j x[l·xStride+j] · m[j·64 : j·64+64]
//
// Eight ZMM accumulators hold one lane's 64-entry output; each column
// costs one VBROADCASTSD of x[j] plus eight VFMADD231PD, so the matrix
// streams through the FMA units with no horizontal reductions. Columns
// are 64-byte aligned (Pack aligns the backing array), so every load is
// a whole cache line. Lanes are processed in pairs, with the eight
// chunks of each propagator column loaded into Z16–Z23 once and feeding
// both lanes' FMA chains (Z0–Z7 accumulate lane A, Z8–Z15 lane B), so
// the matrix streams through the load ports half as often as two
// single-lane passes. An odd trailing lane (and k == 1) runs the
// single-lane loop. Per lane the FMA sequence — y = bias, then one
// fused multiply-add per column in ascending order — is the same in
// every kernel of this file, which keeps batched ticks bit-identical to
// sequential ones. cols must be > 0 (the Go wrapper routes cols == 0 to
// the generic copy path).
TEXT ·fusedTickBatch64(SB), NOSPLIT, $0-56
	MOVQ m+0(FP), SI
	MOVQ cols+8(FP), CX
	MOVQ x+16(FP), DX
	MOVQ xStride+24(FP), R9
	MOVQ bias+32(FP), BX
	MOVQ y+40(FP), DI
	MOVQ k+48(FP), R8

	SHLQ $3, R9              // x lane stride, bytes

pairloop:
	CMPQ R8, $2
	JLT  lanetail

	// Seed both lanes' accumulators from their bias columns.
	VMOVUPD (BX), Z0
	VMOVUPD 64(BX), Z1
	VMOVUPD 128(BX), Z2
	VMOVUPD 192(BX), Z3
	VMOVUPD 256(BX), Z4
	VMOVUPD 320(BX), Z5
	VMOVUPD 384(BX), Z6
	VMOVUPD 448(BX), Z7
	VMOVUPD 512(BX), Z8
	VMOVUPD 576(BX), Z9
	VMOVUPD 640(BX), Z10
	VMOVUPD 704(BX), Z11
	VMOVUPD 768(BX), Z12
	VMOVUPD 832(BX), Z13
	VMOVUPD 896(BX), Z14
	VMOVUPD 960(BX), Z15

	MOVQ SI, R10             // propagator column cursor
	MOVQ DX, R11             // lane A input cursor
	LEAQ (DX)(R9*1), R12     // lane B input cursor
	MOVQ CX, AX

paircol:
	VMOVUPD      (R10), Z16
	VMOVUPD      64(R10), Z17
	VMOVUPD      128(R10), Z18
	VMOVUPD      192(R10), Z19
	VMOVUPD      256(R10), Z20
	VMOVUPD      320(R10), Z21
	VMOVUPD      384(R10), Z22
	VMOVUPD      448(R10), Z23
	VBROADCASTSD (R11), Z24
	VBROADCASTSD (R12), Z25
	VFMADD231PD  Z16, Z24, Z0
	VFMADD231PD  Z17, Z24, Z1
	VFMADD231PD  Z18, Z24, Z2
	VFMADD231PD  Z19, Z24, Z3
	VFMADD231PD  Z20, Z24, Z4
	VFMADD231PD  Z21, Z24, Z5
	VFMADD231PD  Z22, Z24, Z6
	VFMADD231PD  Z23, Z24, Z7
	VFMADD231PD  Z16, Z25, Z8
	VFMADD231PD  Z17, Z25, Z9
	VFMADD231PD  Z18, Z25, Z10
	VFMADD231PD  Z19, Z25, Z11
	VFMADD231PD  Z20, Z25, Z12
	VFMADD231PD  Z21, Z25, Z13
	VFMADD231PD  Z22, Z25, Z14
	VFMADD231PD  Z23, Z25, Z15
	ADDQ         $512, R10
	ADDQ         $8, R11
	ADDQ         $8, R12
	DECQ         AX
	JNZ          paircol

	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	VMOVUPD Z8, 512(DI)
	VMOVUPD Z9, 576(DI)
	VMOVUPD Z10, 640(DI)
	VMOVUPD Z11, 704(DI)
	VMOVUPD Z12, 768(DI)
	VMOVUPD Z13, 832(DI)
	VMOVUPD Z14, 896(DI)
	VMOVUPD Z15, 960(DI)

	ADDQ $1024, BX
	ADDQ $1024, DI
	LEAQ (DX)(R9*2), DX
	SUBQ $2, R8
	JMP  pairloop

lanetail:
	TESTQ R8, R8
	JZ    batchdone

	// Single trailing lane: the memory-operand loop.
	VMOVUPD (BX), Z0
	VMOVUPD 64(BX), Z1
	VMOVUPD 128(BX), Z2
	VMOVUPD 192(BX), Z3
	VMOVUPD 256(BX), Z4
	VMOVUPD 320(BX), Z5
	VMOVUPD 384(BX), Z6
	VMOVUPD 448(BX), Z7

	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ CX, AX

tailcol:
	VBROADCASTSD (R11), Z8
	VFMADD231PD  (R10), Z8, Z0
	VFMADD231PD  64(R10), Z8, Z1
	VFMADD231PD  128(R10), Z8, Z2
	VFMADD231PD  192(R10), Z8, Z3
	VFMADD231PD  256(R10), Z8, Z4
	VFMADD231PD  320(R10), Z8, Z5
	VFMADD231PD  384(R10), Z8, Z6
	VFMADD231PD  448(R10), Z8, Z7
	ADDQ         $512, R10
	ADDQ         $8, R11
	DECQ         AX
	JNZ          tailcol

	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)

batchdone:
	VZEROUPPER
	RET

// func fusedTickBatch56x4(m *float64, cols int, x *float64, xStride int, bias *float64, y *float64, k int)
//
// Quad-lane kernel for operands with at most 56 live rows: k is a
// positive multiple of four (the Go wrapper routes remainders to
// fusedTickBatch64) and each group of four lanes streams the propagator
// once. The top chunk of every 64-entry column is zero padding, so
// only seven chunks are computed and rows 56–63 of bias and y are never
// touched (their contents are unspecified on return). 4 lanes × 7 live chunks
// would need 28 accumulators, so the rows are register-blocked into two
// passes over the columns:
//
//	pass 1, chunks 0–3 (rows 0–31): Z0–Z15 accumulate (4 chunks × 4
//	  lanes), Z16–Z19 hold the column's chunks, Z20–Z23 the broadcasts;
//	pass 2, chunks 4–6 (rows 32–55): Z0–Z11 accumulate, the column
//	  cursor starts 256 bytes in.
//
// Each pass re-walks x (64 columns × 4 broadcasts — trivially hot) but
// touches a disjoint 2 KB row block of the propagator per column, which
// stays L1-resident while all four lanes consume it. Per lane and per
// row the FMA order over columns is fusedTickBatch64's, so lanes remain
// bit-identical to the pair and single-lane loops. Lane C and D input cursors are derived
// by indexed addressing off lanes A and B ((R11)(R9*2), (R12)(R9*2)),
// keeping R13–R15 untouched.
TEXT ·fusedTickBatch56x4(SB), NOSPLIT, $0-56
	MOVQ m+0(FP), SI
	MOVQ cols+8(FP), CX
	MOVQ x+16(FP), DX
	MOVQ xStride+24(FP), R9
	MOVQ bias+32(FP), BX
	MOVQ y+40(FP), DI
	MOVQ k+48(FP), R8

	SHLQ $3, R9              // x lane stride, bytes

quadloop:
	CMPQ R8, $4
	JLT  quaddone

	// -------- pass 1: chunks 0–3 (rows 0–31) --------
	// Accumulators: lane A Z0–Z3, B Z4–Z7, C Z8–Z11, D Z12–Z15, seeded
	// from each lane's bias column (lane L chunk c at L·512 + c·64).
	VMOVUPD (BX), Z0
	VMOVUPD 64(BX), Z1
	VMOVUPD 128(BX), Z2
	VMOVUPD 192(BX), Z3
	VMOVUPD 512(BX), Z4
	VMOVUPD 576(BX), Z5
	VMOVUPD 640(BX), Z6
	VMOVUPD 704(BX), Z7
	VMOVUPD 1024(BX), Z8
	VMOVUPD 1088(BX), Z9
	VMOVUPD 1152(BX), Z10
	VMOVUPD 1216(BX), Z11
	VMOVUPD 1536(BX), Z12
	VMOVUPD 1600(BX), Z13
	VMOVUPD 1664(BX), Z14
	VMOVUPD 1728(BX), Z15

	MOVQ SI, R10             // column cursor, chunk 0 of column 0
	MOVQ DX, R11             // lane A input cursor
	LEAQ (DX)(R9*1), R12     // lane B input cursor
	MOVQ CX, AX

pass1col:
	VMOVUPD      (R10), Z16
	VMOVUPD      64(R10), Z17
	VMOVUPD      128(R10), Z18
	VMOVUPD      192(R10), Z19
	VBROADCASTSD (R11), Z20
	VBROADCASTSD (R12), Z21
	VBROADCASTSD (R11)(R9*2), Z22
	VBROADCASTSD (R12)(R9*2), Z23
	VFMADD231PD  Z16, Z20, Z0
	VFMADD231PD  Z17, Z20, Z1
	VFMADD231PD  Z18, Z20, Z2
	VFMADD231PD  Z19, Z20, Z3
	VFMADD231PD  Z16, Z21, Z4
	VFMADD231PD  Z17, Z21, Z5
	VFMADD231PD  Z18, Z21, Z6
	VFMADD231PD  Z19, Z21, Z7
	VFMADD231PD  Z16, Z22, Z8
	VFMADD231PD  Z17, Z22, Z9
	VFMADD231PD  Z18, Z22, Z10
	VFMADD231PD  Z19, Z22, Z11
	VFMADD231PD  Z16, Z23, Z12
	VFMADD231PD  Z17, Z23, Z13
	VFMADD231PD  Z18, Z23, Z14
	VFMADD231PD  Z19, Z23, Z15
	ADDQ         $512, R10
	ADDQ         $8, R11
	ADDQ         $8, R12
	DECQ         AX
	JNZ          pass1col

	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 512(DI)
	VMOVUPD Z5, 576(DI)
	VMOVUPD Z6, 640(DI)
	VMOVUPD Z7, 704(DI)
	VMOVUPD Z8, 1024(DI)
	VMOVUPD Z9, 1088(DI)
	VMOVUPD Z10, 1152(DI)
	VMOVUPD Z11, 1216(DI)
	VMOVUPD Z12, 1536(DI)
	VMOVUPD Z13, 1600(DI)
	VMOVUPD Z14, 1664(DI)
	VMOVUPD Z15, 1728(DI)

	// -------- pass 2: chunks 4–6 (rows 32–55) --------
	// Accumulators: lane A Z0–Z2, B Z3–Z5, C Z6–Z8, D Z9–Z11.
	VMOVUPD 256(BX), Z0
	VMOVUPD 320(BX), Z1
	VMOVUPD 384(BX), Z2
	VMOVUPD 768(BX), Z3
	VMOVUPD 832(BX), Z4
	VMOVUPD 896(BX), Z5
	VMOVUPD 1280(BX), Z6
	VMOVUPD 1344(BX), Z7
	VMOVUPD 1408(BX), Z8
	VMOVUPD 1792(BX), Z9
	VMOVUPD 1856(BX), Z10
	VMOVUPD 1920(BX), Z11

	LEAQ 256(SI), R10        // column cursor, chunk 4 of column 0
	MOVQ DX, R11
	LEAQ (DX)(R9*1), R12
	MOVQ CX, AX

pass2col:
	VMOVUPD      (R10), Z16
	VMOVUPD      64(R10), Z17
	VMOVUPD      128(R10), Z18
	VBROADCASTSD (R11), Z20
	VBROADCASTSD (R12), Z21
	VBROADCASTSD (R11)(R9*2), Z22
	VBROADCASTSD (R12)(R9*2), Z23
	VFMADD231PD  Z16, Z20, Z0
	VFMADD231PD  Z17, Z20, Z1
	VFMADD231PD  Z18, Z20, Z2
	VFMADD231PD  Z16, Z21, Z3
	VFMADD231PD  Z17, Z21, Z4
	VFMADD231PD  Z18, Z21, Z5
	VFMADD231PD  Z16, Z22, Z6
	VFMADD231PD  Z17, Z22, Z7
	VFMADD231PD  Z18, Z22, Z8
	VFMADD231PD  Z16, Z23, Z9
	VFMADD231PD  Z17, Z23, Z10
	VFMADD231PD  Z18, Z23, Z11
	ADDQ         $512, R10
	ADDQ         $8, R11
	ADDQ         $8, R12
	DECQ         AX
	JNZ          pass2col

	VMOVUPD Z0, 256(DI)
	VMOVUPD Z1, 320(DI)
	VMOVUPD Z2, 384(DI)
	VMOVUPD Z3, 768(DI)
	VMOVUPD Z4, 832(DI)
	VMOVUPD Z5, 896(DI)
	VMOVUPD Z6, 1280(DI)
	VMOVUPD Z7, 1344(DI)
	VMOVUPD Z8, 1408(DI)
	VMOVUPD Z9, 1792(DI)
	VMOVUPD Z10, 1856(DI)
	VMOVUPD Z11, 1920(DI)

	ADDQ $2048, BX
	ADDQ $2048, DI
	LEAQ (DX)(R9*4), DX
	SUBQ $4, R8
	JMP  quadloop

quaddone:
	VZEROUPPER
	RET

// func expAffine8(dst, x *float64, n int, a, b float64, consts, tab *float64) int
//
// For each group of eight lanes i in [0,n), under lane mask K1 (all
// eight, or the low n%8 for the last group):
//
//	u  = (x[i] − b)·a                         VSUBPD, VMULPD
//	kd = u·(64/ln2) + 1.5·2^52                 k = round(u·64/ln2) in the low bits
//	r  = (kd − 1.5·2^52)·(−ln2/64 hi) + u, then ·(−ln2/64 lo) + r
//	p  = r²·(c2 + r·(c3 + r·(c4 + r·(c5 + r·c6)))) + r
//	s  = 2^(j/64) with m added to its exponent, j = k&63, m = k>>6
//	dst[i] = s·p + s
//
// Every step is one correctly rounded VSUBPD/VMULPD/VFMADD, in the
// order of the scalar expReduce, so each lane carries Exp's bits. A
// group whose live lanes are not all within ±expFastMax (NaN compares
// false) stops the kernel before anything of it is stored; the return
// value is then that group's first index, else n. The table lookup is
// one VGATHERQPD of exp2Table; j is in [0,64) in every lane, masked or
// not, so the gather never reads outside the table. Constants, in
// expKernelConsts order, live in Z18–Z28 for the whole call:
//
//	Z16 a, Z17 b, Z18 64/ln2, Z19 1.5·2^52, Z20 −ln2/64 hi,
//	Z21 −ln2/64 lo, Z22–Z26 c2–c6, Z27 expFastMax, Z28 −expFastMax.
TEXT ·expAffine8(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), R10
	MOVQ consts+40(FP), AX
	MOVQ tab+48(FP), R8

	VBROADCASTSD a+24(FP), Z16
	VBROADCASTSD b+32(FP), Z17
	VBROADCASTSD (AX), Z18
	VBROADCASTSD 8(AX), Z19
	VBROADCASTSD 16(AX), Z20
	VBROADCASTSD 24(AX), Z21
	VBROADCASTSD 32(AX), Z22
	VBROADCASTSD 40(AX), Z23
	VBROADCASTSD 48(AX), Z24
	VBROADCASTSD 56(AX), Z25
	VBROADCASTSD 64(AX), Z26
	VBROADCASTSD 72(AX), Z27
	VBROADCASTSD 80(AX), Z28

	XORQ R9, R9              // index of the group's first lane

exploop:
	MOVQ R10, CX
	SUBQ R9, CX              // lanes left
	JLE  expdone
	MOVL $0xff, BX
	CMPQ CX, $8
	JGE  expmask
	MOVL $1, BX              // last group: mask (1 << lanes left) − 1
	SHLL CX, BX
	DECL BX

expmask:
	KMOVW BX, K1
	VMOVUPD.Z (SI)(R9*8), K1, Z0
	VSUBPD    Z17, Z0, Z0
	VMULPD    Z16, Z0, Z0    // u

	// Live lanes within ±expFastMax (ordered compares: NaN fails).
	VCMPPD $0x12, Z27, Z0, K1, K2 // u <= expFastMax, LE_OQ
	VCMPPD $0x1d, Z28, Z0, K2, K2 // u >= −expFastMax, GE_OQ
	KMOVW  K2, DX
	CMPL   DX, BX
	JNE    expbail

	VMOVAPD     Z19, Z1
	VFMADD231PD Z18, Z0, Z1  // kd = u·64/ln2 + shift
	VSUBPD      Z19, Z1, Z2  // k
	VMOVAPD     Z0, Z3
	VFMADD231PD Z20, Z2, Z3  // r = k·(−hi) + u
	VFMADD231PD Z21, Z2, Z3  // r = k·(−lo) + r
	VMULPD      Z3, Z3, Z4   // r²
	VMOVAPD     Z25, Z5
	VFMADD231PD Z26, Z3, Z5  // q = c6·r + c5
	VFMADD213PD Z24, Z3, Z5  // q = q·r + c4
	VFMADD213PD Z23, Z3, Z5  // q = q·r + c3
	VFMADD213PD Z22, Z3, Z5  // q = q·r + c2
	VFMADD213PD Z3, Z4, Z5   // p = q·r² + r

	VPSLLQ     $58, Z1, Z6
	VPSRLQ     $58, Z6, Z6   // j = bits(kd) & 63
	VPSRLQ     $6, Z1, Z7
	VPSLLQ     $52, Z7, Z7   // m in the exponent field
	KXNORW     K0, K0, K3
	VGATHERQPD (R8)(Z6*8), K3, Z8
	VPADDQ     Z7, Z8, Z8    // s
	VFMADD231PD Z8, Z5, Z8   // s·p + s

	VMOVUPD Z8, K1, (DI)(R9*8)
	ADDQ    $8, R9
	JMP     exploop

expdone:
	MOVQ R10, R9

expbail:
	MOVQ R9, ret+56(FP)
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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
