//go:build amd64 && !noasm

package linalg

// fusedTickBatch64 computes y[l·64:] = bias[l·64:] + M·x[l·xStride:]
// for each lane l in [0,k), for the packed column-major operand at the
// fixed 64-row stride: eight ZMM accumulators hold a lane's output, and
// each column contributes one broadcast plus eight fused multiply-adds.
// Lanes are walked in pairs so each 512-byte propagator column is
// loaded into registers once and feeds two lanes' FMA chains; per lane
// the operation sequence does not depend on k, so batched and
// sequential (k = 1) ticks are bit-identical. Implemented in
// simd_amd64.s; only called when detectAVX512 reported support.
//
//mtlint:generic mulAddGeneric tested-by FuzzMulBatchInto
//go:noescape
func fusedTickBatch64(m *float64, cols int, x *float64, xStride int, bias *float64, y *float64, k int)

// fusedTickBatch56x4 is the quad-lane widening of fusedTickBatch64 for
// operands whose live rows fit in seven ZMM chunks (Rows ≤ 56): k must
// be a positive multiple of four, and each group of four lanes shares
// every 512-byte propagator column read. The top padding chunk of every
// column is provably zero, so it is skipped and rows 56–63 of every y
// lane are unspecified on return. The seven row chunks are
// register-blocked into two passes over the columns — chunks 0–3 (16
// accumulators) then chunks 4–6 (12 accumulators) — so 4×7 = 28
// accumulators never have to coexist in the 32 ZMM registers; the
// operand row-block touched by a pass stays resident across all four
// lanes. Per lane and per row the FMA sequence is still ascending
// column order, exactly fusedTickBatch64's, so bit-identity with the
// single-lane path is preserved. Implemented in simd_amd64.s.
//
//mtlint:generic mulBatchGeneric tested-by FuzzMulBatchInto
//go:noescape
func fusedTickBatch56x4(m *float64, cols int, x *float64, xStride int, bias *float64, y *float64, k int)

// expAffine8 computes dst[i] = Exp(a·(x[i]−b)) eight lanes at a time
// for i in [0,n), the last group under a lane mask, and returns how
// many elements it finished: n, or the start of the first group of
// eight holding an input a·(x[i]−b) outside ±expFastMax or NaN, which
// it leaves unwritten for ExpAffineInto to run through the scalar
// twin. Lane for lane it performs expReduce's correctly rounded
// operations in expReduce's order, so its results are Exp's bits.
// consts points at expKernelConsts and tab at exp2Table. Implemented
// in simd_amd64.s.
//
//mtlint:generic expAffineGeneric tested-by FuzzExpAffineInto
//go:noescape
func expAffine8(dst, x *float64, n int, a, b float64, consts, tab *float64) int

// cpuid executes the CPUID instruction for the given leaf/subleaf.
//
//mtlint:nogeneric feature-detection primitive, no arithmetic to mirror
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
//
//mtlint:nogeneric feature-detection primitive, no arithmetic to mirror
func xgetbv() (eax, edx uint32)

var simdAvailable = detectAVX512()

// detectAVX512 reports whether the CPU and OS support the AVX-512F
// instructions the packed and leakage kernels use: XSAVE/OSXSAVE enabled, XCR0
// advertising XMM+YMM+opmask+ZMM state saving, and the AVX-512
// Foundation feature bit set.
func detectAVX512() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const xsave, osxsave, avx = 1 << 26, 1 << 27, 1 << 28
	if c1&xsave == 0 || c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	// XCR0: SSE (1), AVX (2), opmask (5), ZMM0-15 upper (6), ZMM16-31 (7).
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if lo, _ := xgetbv(); lo&zmmState != zmmState {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx512f = 1 << 16
	return b7&avx512f != 0
}
