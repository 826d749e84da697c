package linalg

import "math"

// The simulator's own exponential. Go's math.Exp picks its instruction
// sequence at run time on amd64 (one path when the CPU has FMA, another
// when it does not) and runs its own assembly on arm64, so the same
// binary returns different bits on different hosts. Exp is written
// only with math.FMA, which is correctly rounded everywhere, and with
// IEEE +, −, × and integer bit operations, so its bits depend on the
// input alone.
//
// The method is the classic table-driven reduction: with
// k = round(x·64/ln2) = 64m + j,
//
//	e^x = 2^m · 2^(j/64) · e^r,  r = x − k·ln2/64,  |r| ≤ ln2/128,
//
// where 2^(j/64) comes from exp2Table, r is formed with a two-part
// ln2/64 so the cancellation is exact to ~2^-60, and e^r − 1 is a
// degree-6 Taylor polynomial (truncation error below 2^-63 on |r| ≤
// ln2/128). The result is within 2 ulp of math.Exp and within 1 ulp of
// the correctly rounded value (exp_test.go checks both).

const (
	// expFastMax bounds the inputs Exp handles in its short path: for
	// |x| ≤ 708 the result is a normal number and 2^m stays a normal
	// number, so the final scaling is one exact exponent add.
	expFastMax = 708
	// expOverflow is the largest float64 whose exponential is finite
	// (e^x < MaxFloat64 + ½ulp); above it Exp returns +Inf.
	expOverflow = 0x1.62e42fefa39efp+09 // 709.782712893384
	// expUnderflow is the smallest float64 whose exponential rounds to
	// a nonzero value (e^x > 2^-1075); below it Exp returns 0.
	expUnderflow = -0x1.74910d52d3051p+09 // -745.1332191019411

	expInvLn2N = 0x1.71547652b82fep+06 // 64/ln2
	expLn2HiN  = 0x1.62e42fefa39efp-07 // ln2/64, rounded
	expLn2LoN  = 0x1.abc9e3b39803fp-62 // ln2/64 − expLn2HiN
	// expShift = 1.5·2^52: adding it rounds a value of magnitude below
	// 2^51 to the nearest integer k and leaves k in the low mantissa
	// bits (its own low 48 bits are zero).
	expShift = 0x1.8p52

	expC2 = 0x1p-01               // 1/2
	expC3 = 0x1.5555555555555p-03 // 1/6
	expC4 = 0x1.5555555555555p-05 // 1/24
	expC5 = 0x1.1111111111111p-07 // 1/120
	expC6 = 0x1.6c16c16c16c17p-10 // 1/720
)

// exp2Table[j] is 2^(j/64) correctly rounded to float64
// (TestExp2TableCorrectlyRounded recomputes every entry with math/big).
var exp2Table = [64]float64{
	0x1p+00, 0x1.02c9a3e778061p+00, 0x1.059b0d3158574p+00, 0x1.0874518759bc8p+00,
	0x1.0b5586cf9890fp+00, 0x1.0e3ec32d3d1a2p+00, 0x1.11301d0125b51p+00, 0x1.1429aaea92dep+00,
	0x1.172b83c7d517bp+00, 0x1.1a35beb6fcb75p+00, 0x1.1d4873168b9aap+00, 0x1.2063b88628cd6p+00,
	0x1.2387a6e756238p+00, 0x1.26b4565e27cddp+00, 0x1.29e9df51fdee1p+00, 0x1.2d285a6e4030bp+00,
	0x1.306fe0a31b715p+00, 0x1.33c08b26416ffp+00, 0x1.371a7373aa9cbp+00, 0x1.3a7db34e59ff7p+00,
	0x1.3dea64c123422p+00, 0x1.4160a21f72e2ap+00, 0x1.44e086061892dp+00, 0x1.486a2b5c13cdp+00,
	0x1.4bfdad5362a27p+00, 0x1.4f9b2769d2ca7p+00, 0x1.5342b569d4f82p+00, 0x1.56f4736b527dap+00,
	0x1.5ab07dd485429p+00, 0x1.5e76f15ad2148p+00, 0x1.6247eb03a5585p+00, 0x1.6623882552225p+00,
	0x1.6a09e667f3bcdp+00, 0x1.6dfb23c651a2fp+00, 0x1.71f75e8ec5f74p+00, 0x1.75feb564267c9p+00,
	0x1.7a11473eb0187p+00, 0x1.7e2f336cf4e62p+00, 0x1.82589994cce13p+00, 0x1.868d99b4492edp+00,
	0x1.8ace5422aa0dbp+00, 0x1.8f1ae99157736p+00, 0x1.93737b0cdc5e5p+00, 0x1.97d829fde4e5p+00,
	0x1.9c49182a3f09p+00, 0x1.a0c667b5de565p+00, 0x1.a5503b23e255dp+00, 0x1.a9e6b5579fdbfp+00,
	0x1.ae89f995ad3adp+00, 0x1.b33a2b84f15fbp+00, 0x1.b7f76f2fb5e47p+00, 0x1.bcc1e904bc1d2p+00,
	0x1.c199bdd85529cp+00, 0x1.c67f12e57d14bp+00, 0x1.cb720dcef9069p+00, 0x1.d072d4a07897cp+00,
	0x1.d5818dcfba487p+00, 0x1.da9e603db3285p+00, 0x1.dfc97337b9b5fp+00, 0x1.e502ee78b3ff6p+00,
	0x1.ea4afa2a490dap+00, 0x1.efa1bee615a27p+00, 0x1.f50765b6e454p+00, 0x1.fa7c1819e90d8p+00,
}

// expKernelConsts are the broadcast constants of the AVX-512 leakage
// kernel, in the order simd_amd64.s reads them; they are the constants
// Exp uses, so the two share one definition.
var expKernelConsts = [...]float64{
	expInvLn2N, expShift, -expLn2HiN, -expLn2LoN,
	expC2, expC3, expC4, expC5, expC6,
	expFastMax, -expFastMax,
}

// Exp returns e^x. It is bit-reproducible on every host and build (see
// the note above), handles NaN, ±Inf, overflow and gradual underflow
// itself, and never calls math.Exp.
func Exp(x float64) float64 {
	if !(math.Abs(x) <= expFastMax) { // NaN fails the comparison too
		return expSlow(x)
	}
	s, p := expReduce(x, 0)
	return math.FMA(s, p, s)
}

// expReduce splits x = (64m + j)·ln2/64 + r and returns
// s = 2^(j/64)·2^(m+bias) and p = e^r − 1, so that e^x = s·(1+p)·2^-bias.
// The caller keeps m+bias within the normal exponent range. Each step
// is one correctly rounded operation, in the order the AVX-512 kernel
// performs them.
func expReduce(x float64, bias int64) (s, p float64) {
	kd := math.FMA(x, expInvLn2N, expShift)
	bits := math.Float64bits(kd)
	kd -= expShift
	r := math.FMA(kd, -expLn2HiN, x)
	r = math.FMA(kd, -expLn2LoN, r)
	r2 := r * r
	q := math.FMA(expC6, r, expC5)
	q = math.FMA(q, r, expC4)
	q = math.FMA(q, r, expC3)
	q = math.FMA(q, r, expC2)
	p = math.FMA(r2, q, r)
	// bits = bits(expShift) + k; because the shift's low 48 bits are
	// zero, bits&63 is j and (bits>>6)<<52 is m in the exponent field.
	e := (bits>>6 + uint64(bias)) << 52
	s = math.Float64frombits(math.Float64bits(exp2Table[bits&63]) + e)
	return s, p
}

// expSlow is Exp outside ±expFastMax: NaN, the infinities, overflow,
// and results too large or too small for the short path's scaling.
func expSlow(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case x > expOverflow:
		return math.Inf(1)
	case x < expUnderflow:
		return 0
	case x > 0:
		// m reaches 1024: build s at 2^(m−1) and double the rounded
		// result, which is exact (or +Inf past MaxFloat64).
		s, p := expReduce(x, -1)
		return math.FMA(s, p, s) * 2
	}
	// The result is at most a few ulp above 2^-1022 or subnormal. Form
	// y = e^x·2^1022 at full precision; a normal result is then one
	// exact scaling.
	s, p := expReduce(x, 1022)
	y := math.FMA(s, p, s)
	if y >= 1 {
		return y * 0x1p-1022
	}
	// Subnormal: y must be rounded once, to the 2^-52 grid that
	// 2^-1022 scales onto the subnormal spacing. Scaling y directly
	// would round twice (once to 53 bits, again to the subnormal
	// grid). Instead recover y's rounding error lo, then round y + lo
	// by adding 1, whose ulp is exactly that grid.
	lo := math.FMA(s, p, s-y) // s − y is exact (Sterbenz)
	hi := 1 + y
	lo = 1 - hi + y + lo
	return (hi + lo - 1) * 0x1p-1022
}

// ExpAffineInto sets dst[i] = Exp(a·(x[i]−b)) for every i < len(x),
// with the subtraction and the product each rounded as written. dst
// must hold at least len(x) elements and may alias x. On AVX-512 hosts
// it runs an 8-lane kernel that is bit-identical to Exp; any group of
// eight holding an input outside ±708 (or NaN) goes through
// expAffineGeneric instead.
//
//mtlint:zeroalloc
func ExpAffineInto(dst, x []float64, a, b float64) {
	dst = dst[:len(x)]
	if !simdAvailable {
		expAffineGeneric(dst, x, a, b)
		return
	}
	for i := 0; i < len(x); {
		i += expAffine8(&dst[i], &x[i], len(x)-i, a, b, &expKernelConsts[0], &exp2Table[0])
		if i < len(x) {
			end := min(i+8, len(x))
			expAffineGeneric(dst[i:end], x[i:end], a, b)
			i = end
		}
	}
}

// expAffineGeneric is the portable twin of expAffine8: the scalar Exp
// on every element.
//
//mtlint:zeroalloc
func expAffineGeneric(dst, x []float64, a, b float64) {
	for i, v := range x {
		dst[i] = Exp(a * (v - b))
	}
}
