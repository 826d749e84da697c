package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// Differential fuzz targets for the asm-backed kernels: every input is
// run through both the dispatching entry point (SIMD when available)
// and the registered pure-Go twin, and the results compared bit for
// bit. The twins accumulate with math.FMA in the kernels' column
// order, and math.FMA and VFMADD231PD are both correctly rounded, so
// any difference at all is a bug. These are the tested-by targets
// named in the //mtlint:generic directives in simd_amd64.go, and they
// double as the noasm leg's property tests.
//
// Inputs arrive as (seed, size, ...) primitives rather than raw bytes:
// a seeded PRNG expands them into operands, so every corpus entry is
// reproducible and minimization stays meaningful.

// sameBits reports whether a and b are the same float64 bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// randPacked builds a rows×cols matrix of standard normals and packs
// it, along with a random input vector and bias panel.
func randPacked(rng *rand.Rand, rows, cols int) (p *Packed, x, bias []float64) {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	p = Pack(m)
	x = make([]float64, cols)
	for j := range x {
		x[j] = rng.NormFloat64()
	}
	bias = make([]float64, p.Stride())
	for i := 0; i < rows; i++ {
		bias[i] = rng.NormFloat64()
	}
	return p, x, bias
}

// FuzzMulAddInto is the differential target for the single-lane
// (k = 1) path through fusedTickBatch64: MulAddInto (SIMD when
// available) against the registered generic twin mulAddGeneric, bit
// for bit.
func FuzzMulAddInto(f *testing.F) {
	f.Add(int64(1), int64(8), int64(6))
	f.Add(int64(2), int64(64), int64(64)) // full-stride operand
	f.Add(int64(3), int64(56), int64(55)) // CMP4-sized network
	f.Add(int64(4), int64(1), int64(1))
	f.Add(int64(5), int64(63), int64(7))   // odd row count below stride
	f.Add(int64(33), int64(55), int64(55)) // CMP4 Φ operand
	f.Add(int64(34), int64(55), int64(14)) // CMP4 Ψ operand
	f.Fuzz(func(t *testing.T, seed, rowsIn, colsIn int64) {
		rows := int((uint64(rowsIn)-1)%64) + 1 // 1..64: every packed shape
		cols := int((uint64(colsIn)-1)%80) + 1
		rng := rand.New(rand.NewSource(seed))
		p, x, bias := randPacked(rng, rows, cols)

		got := make([]float64, p.Stride())
		want := make([]float64, p.Stride())
		p.MulAddInto(got, bias, x)
		p.mulAddGeneric(want, bias, x)
		for i := 0; i < rows; i++ {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("rows=%d cols=%d row %d: MulAddInto=%g mulAddGeneric=%g (diff %g)",
					rows, cols, i, got[i], want[i], got[i]-want[i])
			}
		}
	})
}

// FuzzMulBatchInto is the differential target for fusedTickBatch64 and
// fusedTickBatch56x4 (lane counts reach 8, so quad groups plus every
// remainder width are exercised). Per lane, three results must share
// one bit pattern: the batched kernel, sequential one-lane MulAddInto
// calls (the documented contract — same operation sequence whatever
// the lane count, so the quad and pair kernels agree with the
// single-lane loop), and the generic twin mulAddGeneric; the blocked
// generic twin mulBatchGeneric must match too, since on noasm builds it
// IS the batch path. Ragged widths are exercised by varying xStride
// between tight (cols) and padded (stride).
func FuzzMulBatchInto(f *testing.F) {
	f.Add(int64(1), int64(8), int64(6), int64(3), false)
	f.Add(int64(2), int64(64), int64(64), int64(4), true) // 64-row kernel
	f.Add(int64(3), int64(56), int64(55), int64(7), true) // quads plus a pair-kernel remainder
	f.Add(int64(4), int64(56), int64(55), int64(1), false)
	f.Add(int64(5), int64(40), int64(3), int64(2), false) // ragged: narrow operand, tight x
	// 12- and 13-core grids (58 and 62 nodes) run the pair kernel at
	// every lane count.
	f.Add(int64(6), int64(58), int64(58), int64(1), true)
	f.Add(int64(7), int64(58), int64(58), int64(2), false)
	f.Add(int64(8), int64(58), int64(12), int64(3), true)
	f.Add(int64(9), int64(62), int64(62), int64(1), false)
	f.Add(int64(10), int64(62), int64(62), int64(2), true)
	f.Add(int64(11), int64(62), int64(13), int64(3), false)
	// ≤ 56 rows past one quad: the quad kernel, then fusedTickBatch64
	// for the 1–3 remaining lanes.
	f.Add(int64(12), int64(55), int64(55), int64(5), true)
	f.Add(int64(13), int64(55), int64(45), int64(6), false)
	f.Add(int64(14), int64(23), int64(23), int64(7), true)
	f.Fuzz(func(t *testing.T, seed, rowsIn, colsIn, lanesIn int64, padX bool) {
		rows := int((uint64(rowsIn)-1)%64) + 1
		cols := int((uint64(colsIn)-1)%64) + 1 // ≤ stride so tight and padded xStride both stay legal
		k := int((uint64(lanesIn)-1)%8) + 1
		rng := rand.New(rand.NewSource(seed))
		p, _, _ := randPacked(rng, rows, cols)
		stride := p.Stride()

		xStride := cols
		if padX {
			xStride = stride
		}
		x := make([]float64, k*xStride)
		bias := make([]float64, k*stride)
		for l := 0; l < k; l++ {
			for j := 0; j < cols; j++ {
				x[l*xStride+j] = rng.NormFloat64()
			}
			for i := 0; i < rows; i++ {
				bias[l*stride+i] = rng.NormFloat64()
			}
		}

		got := make([]float64, k*stride)
		p.MulBatchInto(got, bias, k, x, xStride)

		blocked := make([]float64, k*stride)
		p.mulBatchGeneric(blocked, bias, k, x, xStride)

		seq := make([]float64, stride)
		gen := make([]float64, stride)
		for l := 0; l < k; l++ {
			lx := x[l*xStride : l*xStride+cols]
			lb := bias[l*stride : (l+1)*stride]
			p.MulAddInto(seq, lb, lx)
			p.mulAddGeneric(gen, lb, lx)
			for i := 0; i < rows; i++ {
				b := got[l*stride+i]
				if !sameBits(b, seq[i]) {
					t.Fatalf("rows=%d cols=%d k=%d xStride=%d lane %d row %d: batch=%g sequential=%g — batched tick must be bit-identical",
						rows, cols, k, xStride, l, i, b, seq[i])
				}
				if !sameBits(b, gen[i]) {
					t.Fatalf("rows=%d cols=%d k=%d xStride=%d lane %d row %d: batch=%g mulAddGeneric=%g (diff %g)",
						rows, cols, k, xStride, l, i, b, gen[i], b-gen[i])
				}
				if !sameBits(blocked[l*stride+i], gen[i]) {
					t.Fatalf("rows=%d cols=%d k=%d xStride=%d lane %d row %d: mulBatchGeneric=%g mulAddGeneric=%g — blocked generic must be bit-identical per lane",
						rows, cols, k, xStride, l, i, blocked[l*stride+i], gen[i])
				}
			}
		}
	})
}

// FuzzExpm checks the scaling identity e^A = (e^{A/2})² across the
// Padé degree boundaries. The two sides take different code paths for
// almost every norm — different degrees, different scaling exponents —
// so any branch mishandling (like the e^(2A) regression, where norms
// in (θ₉, θ₁₃/2] produced a negative scaling exponent and the result
// was squared once too often) breaks the identity by orders of
// magnitude, far outside the tolerance.
func FuzzExpm(f *testing.F) {
	f.Add(int64(1), int64(4), 2.5)                // the e^(2A) regression band (θ₉, θ₁₃/2]
	f.Add(int64(2), int64(6), 2.097847961257068)  // exactly θ₉
	f.Add(int64(3), int64(6), 2.0978479612570685) // one ULP above θ₉
	f.Add(int64(4), int64(5), 5.371920351148152)  // exactly θ₁₃
	f.Add(int64(5), int64(5), 5.5)                // just past θ₁₃: first scaled branch
	f.Add(int64(6), int64(3), 0.014)              // θ₃ boundary
	f.Add(int64(7), int64(8), 12.0)               // multiple squarings
	f.Fuzz(func(t *testing.T, seed, sizeIn int64, norm float64) {
		n := int((uint64(sizeIn)-1)%10) + 1
		if math.IsNaN(norm) || math.IsInf(norm, 0) {
			t.Skip("non-finite target norm")
		}
		norm = math.Abs(norm)
		if norm < 1e-6 || norm > 16 {
			t.Skip("target norm outside the exercised range")
		}
		rng := rand.New(rand.NewSource(seed))
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		if cur := a.Norm1(); cur > 0 {
			a = a.scaled(norm / cur)
		}

		whole, err := Expm(a)
		if err != nil {
			t.Fatalf("Expm(A): %v", err)
		}
		half, err := Expm(a.scaled(0.5))
		if err != nil {
			t.Fatalf("Expm(A/2): %v", err)
		}
		squared := half.Mul(half)

		// Relative to the result magnitude: e^A entries grow like e^norm,
		// and the squaring step loses a few digits, so scale the bound.
		tol := 1e-9 * math.Max(1, whole.MaxAbs())
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d := math.Abs(whole.At(i, j) - squared.At(i, j)); d > tol {
					t.Fatalf("n=%d norm=%g: e^A[%d,%d]=%g but (e^(A/2))²=%g (diff %g, tol %g)",
						n, norm, i, j, whole.At(i, j), squared.At(i, j), d, tol)
				}
			}
		}
	})
}

// expSpecials are inputs of Exp that leave the kernel's short path, or
// sit on its edges: a group of eight holding one of the former must go
// through the scalar twin.
var expSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	expFastMax, -expFastMax, math.Nextafter(expFastMax, 1000), math.Nextafter(-expFastMax, -1000),
	expOverflow, math.Nextafter(expOverflow, 1000), expUnderflow, math.Nextafter(expUnderflow, -1000),
	-740, 709, 1e300, -1e300, 5e-324,
}

// FuzzExpAffineInto is the differential target for expAffine8:
// ExpAffineInto (the AVX-512 kernel when available) against the scalar
// twin expAffineGeneric, bit for bit. Lengths 0–70 cover every tail
// mask over up to eight full groups; special values mixed into a
// vector send their group through the twin while the groups around it
// stay on the kernel. The output must also leave dst past len(x)
// untouched, and aliasing dst with x must give the same bits.
func FuzzExpAffineInto(f *testing.F) {
	f.Add(int64(1), int64(45), 0.017, 85.0, uint8(0))  // CMP4 leakage pass
	f.Add(int64(2), int64(7), 1.0, 0.0, uint8(255))    // tail only, all special
	f.Add(int64(3), int64(70), 1.0, 0.0, uint8(20))    // every group, some special
	f.Add(int64(4), int64(0), 1.0, 0.0, uint8(0))      // empty
	f.Add(int64(5), int64(64), -2.5, 10.0, uint8(8))   // whole groups, negative slope
	f.Add(int64(6), int64(33), 1e-3, -300.0, uint8(0)) // inputs near zero
	f.Fuzz(func(t *testing.T, seed, nIn int64, a, b float64, specialRate uint8) {
		n := int(uint64(nIn) % 71)
		rng := rand.New(rand.NewSource(seed))
		if a == 0 || math.IsNaN(a) || math.IsInf(a, 0) { // a zero slope has no inverse
			a = 1
		}
		if math.IsNaN(b) || math.IsInf(b, 0) {
			b = 0
		}
		x := make([]float64, n)
		for i := range x {
			var u float64
			switch r := rng.Intn(256); {
			case r < int(specialRate):
				u = expSpecials[rng.Intn(len(expSpecials))]
			case r%2 == 0:
				u = 3 * rng.NormFloat64() // the leakage band
			default:
				u = -760 + 1480*rng.Float64() // the whole range and past it
			}
			x[i] = u/a + b
		}
		const sentinel = 12345.678
		got := make([]float64, n+9)
		for i := range got {
			got[i] = sentinel
		}
		want := make([]float64, n)
		ExpAffineInto(got, x, a, b)
		expAffineGeneric(want, x, a, b)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("n=%d a=%v b=%v lane %d x=%v: ExpAffineInto=%v (%x), expAffineGeneric=%v (%x)",
					n, a, b, i, x[i], got[i], got[i], want[i], want[i])
			}
		}
		for i := n; i < len(got); i++ {
			if !sameBits(got[i], sentinel) {
				t.Fatalf("n=%d: ExpAffineInto wrote dst[%d] = %v past len(x)", n, i, got[i])
			}
		}
		ExpAffineInto(x, x, a, b)
		for i := range want {
			if !sameBits(x[i], want[i]) {
				t.Fatalf("n=%d lane %d: in place %v, expAffineGeneric %v", n, i, x[i], want[i])
			}
		}
	})
}
