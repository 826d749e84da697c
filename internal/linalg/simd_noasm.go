//go:build !amd64 || noasm

package linalg

var simdAvailable = false

// fusedTickBatch64 is never reached on non-amd64 or noasm builds:
// simdAvailable is false, so MulAddInto and MulBatchInto always take
// the generic path.
func fusedTickBatch64(m *float64, cols int, x *float64, xStride int, bias *float64, y *float64, k int) {
	panic("linalg: fusedTickBatch64 called without SIMD support")
}

// fusedTickBatch56x4 is never reached on non-amd64 or noasm builds either.
func fusedTickBatch56x4(m *float64, cols int, x *float64, xStride int, bias *float64, y *float64, k int) {
	panic("linalg: fusedTickBatch56x4 called without SIMD support")
}
