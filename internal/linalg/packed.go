package linalg

import (
	"fmt"
	"math"
	"unsafe"
)

// packedStride is the fixed column stride (in float64s) of the packed
// operand: eight ZMM accumulators of eight lanes each cover up to 64
// rows, so every column occupies one 512-byte panel and the assembly
// needs no masking or tail handling.
const packedStride = 64

// Packed is a column-major, zero-padded packing of one matrix of at
// most 64 rows, built for the fused update y = bias + M·x that the
// thermal model's exact discretization performs once per control tick.
// Column j is stored contiguously at offset j·Stride, so a
// matrix-vector product streams the data linearly and vectorizes
// across rows (axpy form) instead of reducing along them. A Packed is
// read-only after construction and safe to share across goroutines.
type Packed struct {
	rows, cols int
	data       []float64
}

// Pack packs m column-major at the fixed 64-row stride. m must have at
// most 64 rows.
func Pack(m *Matrix) *Packed {
	if m.rows > packedStride {
		panic(fmt.Sprintf("linalg: Pack needs at most %d rows, got %d", packedStride, m.rows))
	}
	p := &Packed{rows: m.rows, cols: m.cols, data: alignedSlice(m.cols * packedStride)}
	for j := 0; j < m.cols; j++ {
		col := p.data[j*packedStride:]
		for i := 0; i < m.rows; i++ {
			col[i] = m.At(i, j)
		}
	}
	return p
}

// Rows returns the logical (unpadded) row count.
func (p *Packed) Rows() int { return p.rows }

// Cols returns the column count.
func (p *Packed) Cols() int { return p.cols }

// Stride returns the padded column stride; callers of MulAddInto must
// size y and bias to it.
func (p *Packed) Stride() int { return packedStride }

// MulAddInto computes y = bias + P·x. x must have length Cols; y and
// bias must have length Stride; entries of y past Rows are unspecified
// on return. y must not alias x or bias. It is the one-lane case of
// MulBatchInto and runs the same kernels, so a sequential tick is
// bit-identical to a batched one.
//
//mtlint:zeroalloc
func (p *Packed) MulAddInto(y, bias, x []float64) {
	if len(x) != p.cols || len(y) != packedStride || len(bias) != packedStride {
		p.badMulAddArgs(len(x), len(y), len(bias))
	}
	p.mulBatch(y, bias, 1, x, p.cols)
}

// badMulAddArgs formats the MulAddInto argument panic off the hot
// path: the fmt.Sprintf interface conversions are heap allocations
// that must not appear inside the zeroalloc-marked kernel body.
//
//go:noinline
func (p *Packed) badMulAddArgs(nx, ny, nbias int) {
	if nx != p.cols {
		panic(fmt.Sprintf("linalg: MulAddInto x length %d, want %d cols", nx, p.cols))
	}
	panic(fmt.Sprintf("linalg: MulAddInto y/bias lengths %d/%d, want stride %d",
		ny, nbias, packedStride))
}

// mulAddGeneric is the portable axpy-form y = bias + P·x for one lane:
// the reference twin of the SIMD kernels, and the loop mulBatchGeneric
// runs for lanes past its blocks of four. Each row accumulates one
// math.FMA per column in ascending column order, starting from bias —
// the operation sequence of the asm kernels' VFMADD231PD chains, and
// like them correctly rounded once per step, so the results are
// bit-identical to the vectorized path.
//
//mtlint:zeroalloc
func (p *Packed) mulAddGeneric(y, bias, x []float64) {
	copy(y, bias)
	for j := 0; j < p.cols; j++ {
		xj := x[j]
		col := p.data[j*packedStride : j*packedStride+p.rows]
		for i, v := range col {
			y[i] = math.FMA(v, xj, y[i])
		}
	}
}

// MulBatchInto is the multi-RHS (GEMM) form of MulAddInto: for each
// lane l in [0, k) it computes
//
//	y[l·Stride : (l+1)·Stride] = bias[l·Stride : (l+1)·Stride] + P·x[l·xStride : l·xStride+Cols]
//
// amortizing the propagator stream across all lanes of the panel. Lane
// l of y and bias occupies one full padded column at offset l·Stride;
// lane l of x starts at l·xStride and spans Cols entries, so xStride ≥
// Cols lets callers hand over padded state panels directly (xStride ==
// Stride for a state panel, xStride == Cols for a tightly packed input
// panel). Per lane the arithmetic — operation kind and column order —
// does not depend on k or on the lane's position, so a batched tick is
// bit-identical to k sequential MulAddInto ticks. Zero allocations; y
// must not alias x or bias.
//
// Entries past Rows in each y lane are unspecified on return: when the
// live rows fit in seven of the eight ZMM chunks (Rows ≤ 56) the quad
// kernel skips the all-zero padding chunk entirely and never writes it.
//
//mtlint:zeroalloc
func (p *Packed) MulBatchInto(y, bias []float64, k int, x []float64, xStride int) {
	if k == 0 {
		return
	}
	if k < 0 || xStride < p.cols || len(y) != k*packedStride || len(bias) != k*packedStride ||
		len(x) < (k-1)*xStride+p.cols {
		p.badMulBatchArgs(len(y), len(bias), k, len(x), xStride)
	}
	p.mulBatch(y, bias, k, x, xStride)
}

// mulBatch dispatches an argument-checked multi-lane update to the
// SIMD kernels, or to mulBatchGeneric on machines without them.
//
//mtlint:zeroalloc
func (p *Packed) mulBatch(y, bias []float64, k int, x []float64, xStride int) {
	if !simdAvailable || p.cols == 0 {
		p.mulBatchGeneric(y, bias, k, x, xStride)
		return
	}
	q := 0
	if p.rows <= 56 {
		// Quad-lane kernel for whole groups of four: each 512-byte
		// propagator column read from memory feeds four lanes' FMA
		// chains, halving the operand traffic of the pair kernel.
		q = k &^ 3
		if q > 0 {
			fusedTickBatch56x4(&p.data[0], p.cols, &x[0], xStride, &bias[0], &y[0], q)
		}
	}
	// Every other lane — all of them above 56 rows, the 1–3 lanes past
	// the quads below — runs the pair kernel, offset past the quads'
	// panels.
	if rem := k - q; rem > 0 {
		fusedTickBatch64(&p.data[0], p.cols, &x[q*xStride], xStride,
			&bias[q*packedStride], &y[q*packedStride], rem)
	}
}

// mulBatchGeneric is the portable multi-lane twin of the batched SIMD
// kernels and the MulBatchInto fallback on machines without them. Lanes
// are walked in blocks of four so each packed column is read from
// memory once per block instead of once per lane — the same register
// blocking the quad asm kernel performs, expressed as four concurrent
// FMA chains the compiler can keep in registers. Per lane the operation
// sequence is exactly mulAddGeneric's (bias copy, then one math.FMA per
// column in ascending order), so every lane is bit-identical to the
// sequential and vectorized paths regardless of how the lanes are
// grouped.
//
//mtlint:zeroalloc
func (p *Packed) mulBatchGeneric(y, bias []float64, k int, x []float64, xStride int) {
	copy(y[:k*packedStride], bias[:k*packedStride])
	l := 0
	for ; l+4 <= k; l += 4 {
		yA := y[(l+0)*packedStride : (l+0)*packedStride+p.rows]
		yB := y[(l+1)*packedStride : (l+1)*packedStride+p.rows]
		yC := y[(l+2)*packedStride : (l+2)*packedStride+p.rows]
		yD := y[(l+3)*packedStride : (l+3)*packedStride+p.rows]
		xA := x[(l+0)*xStride:]
		xB := x[(l+1)*xStride:]
		xC := x[(l+2)*xStride:]
		xD := x[(l+3)*xStride:]
		for j := 0; j < p.cols; j++ {
			col := p.data[j*packedStride : j*packedStride+p.rows]
			a, b, c, d := xA[j], xB[j], xC[j], xD[j]
			for i, v := range col {
				yA[i] = math.FMA(v, a, yA[i])
				yB[i] = math.FMA(v, b, yB[i])
				yC[i] = math.FMA(v, c, yC[i])
				yD[i] = math.FMA(v, d, yD[i])
			}
		}
	}
	for ; l < k; l++ {
		p.mulAddGeneric(y[l*packedStride:(l+1)*packedStride],
			bias[l*packedStride:(l+1)*packedStride],
			x[l*xStride:l*xStride+p.cols])
	}
}

// badMulBatchArgs formats the MulBatchInto argument panics off the hot
// path (see badMulAddArgs).
//
//go:noinline
func (p *Packed) badMulBatchArgs(ny, nbias, k, nx, xStride int) {
	if k < 0 {
		panic(fmt.Sprintf("linalg: MulBatchInto negative lane count %d", k))
	}
	if xStride < p.cols {
		panic(fmt.Sprintf("linalg: MulBatchInto xStride %d below %d cols", xStride, p.cols))
	}
	if ny != k*packedStride || nbias != k*packedStride {
		panic(fmt.Sprintf("linalg: MulBatchInto y/bias lengths %d/%d, want %d lanes x stride %d",
			ny, nbias, k, packedStride))
	}
	panic(fmt.Sprintf("linalg: MulBatchInto x length %d, want at least %d",
		nx, (k-1)*xStride+p.cols))
}

// NewAligned returns a zeroed []float64 whose backing array starts on
// a 64-byte boundary — the allocation helper for the state panels fed
// to MulBatchInto, so every padded lane maps to whole cache lines.
func NewAligned(n int) []float64 { return alignedSlice(n) }

// alignedSlice returns a zeroed slice of n float64s whose backing array
// starts on a 64-byte boundary, so every 512-byte packed column maps to
// whole cache lines (and aligned ZMM loads).
func alignedSlice(n int) []float64 {
	buf := make([]float64, n+7)
	addr := uintptr(unsafe.Pointer(&buf[0]))
	off := 0
	if r := addr % 64; r != 0 {
		off = int((64 - r) / 8)
	}
	return buf[off : off+n : off+n]
}
