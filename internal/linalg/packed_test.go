package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// randomPacked builds a packed rows×cols matrix of standard normals
// plus the row-major original for reference.
func randomPacked(rng *rand.Rand, rows, cols int) (*Packed, *Matrix) {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return Pack(m), m
}

func TestPackedMulAddMatchesRowMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, dims := range [][2]int{{55, 100}, {1, 1}, {64, 13}, {23, 36}, {62, 25}} {
		rows, cols := dims[0], dims[1]
		p, m := randomPacked(rng, rows, cols)
		x := make([]float64, cols)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		bias := make([]float64, p.Stride())
		for i := 0; i < rows; i++ {
			bias[i] = rng.NormFloat64()
		}
		y := make([]float64, p.Stride())
		p.MulAddInto(y, bias, x)

		w := m.MulVec(x)
		for i := 0; i < rows; i++ {
			want := bias[i] + w[i]
			if math.Abs(y[i]-want) > 1e-11*(1+math.Abs(want)) {
				t.Fatalf("rows=%d: y[%d] = %g, want %g", rows, i, y[i], want)
			}
		}
	}
}

func TestPackedAlignment(t *testing.T) {
	p, _ := randomPacked(rand.New(rand.NewSource(1)), 55, 100)
	if addr := uintptr(unsafe.Pointer(&p.data[0])); addr%64 != 0 {
		t.Fatalf("packed data misaligned: %#x", addr)
	}
	if p.Stride() != packedStride {
		t.Fatalf("stride %d, want %d", p.Stride(), packedStride)
	}
	// Padding rows must be zero so the SIMD lanes beyond Rows stay inert.
	for j := 0; j < p.Cols(); j++ {
		for i := p.Rows(); i < p.Stride(); i++ {
			if v := p.data[j*p.Stride()+i]; v != 0 {
				t.Fatalf("padding row %d of column %d holds %g", i, j, v)
			}
		}
	}
}

func TestPackedPanics(t *testing.T) {
	p, _ := randomPacked(rand.New(rand.NewSource(4)), 8, 8)
	cases := []func(){
		func() { Pack(NewMatrix(packedStride+1, 2)) },
		func() { p.MulAddInto(make([]float64, p.Stride()), make([]float64, p.Stride()), make([]float64, 3)) },
		func() { p.MulAddInto(make([]float64, 8), make([]float64, p.Stride()), make([]float64, 8)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: bad dimensions accepted", i)
				}
			}()
			f()
		}()
	}
}

// TestMulBatchIntoMatchesSequential is the bit-identity guard of the
// batched tick: every lane of a MulBatchInto panel must equal the
// corresponding MulAddInto result exactly — not to tolerance — for odd
// and even lane counts (the kernel pairs lanes, so odd k exercises the
// trailing single-lane path) and for both padded and tight x strides.
func TestMulBatchIntoMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for _, rows := range []int{55, 8, 62} {
		p, _ := randomPacked(rng, rows, rows+13)
		stride := p.Stride()
		for _, k := range []int{1, 2, 3, 5, 8} {
			for _, xStride := range []int{p.Cols(), p.Cols() + 9} {
				x := make([]float64, (k-1)*xStride+p.Cols())
				for j := range x {
					x[j] = rng.NormFloat64()
				}
				bias := make([]float64, k*stride)
				for l := 0; l < k; l++ {
					for i := 0; i < rows; i++ {
						bias[l*stride+i] = rng.NormFloat64()
					}
				}
				y := make([]float64, k*stride)
				p.MulBatchInto(y, bias, k, x, xStride)

				ref := make([]float64, stride)
				for l := 0; l < k; l++ {
					p.MulAddInto(ref, bias[l*stride:(l+1)*stride], x[l*xStride:l*xStride+p.Cols()])
					for i := 0; i < rows; i++ {
						if got := y[l*stride+i]; math.Float64bits(got) != math.Float64bits(ref[i]) {
							t.Fatalf("rows=%d k=%d xStride=%d: lane %d row %d: batch %g != sequential %g",
								rows, k, xStride, l, i, got, ref[i])
						}
					}
				}
			}
		}
	}
}

func TestMulBatchIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	p, _ := randomPacked(rng, 55, 55) // 55 cols ≤ the 64-entry stride
	k := 8
	x := make([]float64, k*p.Stride())
	for j := range x {
		x[j] = rng.NormFloat64()
	}
	y := make([]float64, k*p.Stride())
	bias := make([]float64, k*p.Stride())
	if allocs := testing.AllocsPerRun(100, func() {
		p.MulBatchInto(y, bias, k, x, p.Stride())
	}); allocs != 0 {
		t.Fatalf("MulBatchInto allocates %.0f objects per call, want 0", allocs)
	}
}

func TestMulBatchIntoPanics(t *testing.T) {
	p, _ := randomPacked(rand.New(rand.NewSource(57)), 8, 8)
	st := p.Stride()
	cases := []func(){
		func() { p.MulBatchInto(make([]float64, st), make([]float64, st), -1, make([]float64, 8), 8) },
		func() { p.MulBatchInto(make([]float64, st), make([]float64, st), 1, make([]float64, 8), 4) },
		func() { p.MulBatchInto(make([]float64, st), make([]float64, 2*st), 2, make([]float64, 16), 8) },
		func() { p.MulBatchInto(make([]float64, 2*st), make([]float64, 2*st), 2, make([]float64, 10), 8) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: bad batch dimensions accepted", i)
				}
			}()
			f()
		}()
	}
	// k == 0 is a no-op, not a panic.
	p.MulBatchInto(nil, nil, 0, nil, 8)
}

// BenchmarkPackedMulBatch55 measures the raw batched kernel at the
// CMP4 operand shape (55 rows — the ≤56 quad path — by 55
// columns) across lane counts, isolated from the simulator's per-tick
// bookkeeping. ns/lane is the number to watch: it should fall as k
// grows while the propagator stream amortizes over more lanes, and
// flatten once the FMA ports saturate.
func BenchmarkPackedMulBatch55(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(8))
			p, _ := randomPacked(rng, 55, 55)
			stride := p.Stride()
			x := make([]float64, k*stride)
			for j := range x {
				x[j] = rng.NormFloat64()
			}
			bias := make([]float64, k*stride)
			y := make([]float64, k*stride)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.MulBatchInto(y, bias, k, x, stride)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/lane")
		})
	}
}

func BenchmarkPackedMulAdd55(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	p, _ := randomPacked(rng, 55, 100)
	x := make([]float64, p.Cols())
	for j := range x {
		x[j] = rng.NormFloat64()
	}
	bias := make([]float64, p.Stride())
	y := make([]float64, p.Stride())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MulAddInto(y, bias, x)
	}
}
