package linalg

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// ulpDist is the distance between two finite non-negative float64s in
// units in the last place: the number of representable values between
// them.
func ulpDist(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x > y {
		return x - y
	}
	return y - x
}

// bigPrec is the working precision of the math/big references.
const bigPrec = 320

// bigPow2 returns 2^e at bigPrec bits. (SetMantExp takes its
// precision from the mantissa, so the mantissa must carry bigPrec.)
func bigPow2(e int) *big.Float {
	return new(big.Float).SetMantExp(new(big.Float).SetPrec(bigPrec).SetInt64(1), e)
}

// bigLn2 returns ln 2 = Σ_{k≥1} 1/(k·2^k) to bigPrec bits.
func bigLn2() *big.Float {
	sum := new(big.Float).SetPrec(bigPrec)
	for k := 1; k <= bigPrec+16; k++ {
		term := bigPow2(-k)
		term.Quo(term, new(big.Float).SetPrec(bigPrec).SetInt64(int64(k)))
		sum.Add(sum, term)
	}
	return sum
}

// bigExp returns e^x to ~bigPrec bits: x = k·ln2 + r with |r| ≤ ln2/2,
// then a Taylor series for e^r.
func bigExp(x float64, ln2 *big.Float) *big.Float {
	k := math.Round(x / math.Ln2)
	r := new(big.Float).SetPrec(bigPrec).SetFloat64(x)
	r.Sub(r, new(big.Float).SetPrec(bigPrec).Mul(ln2, big.NewFloat(k)))
	sum := new(big.Float).SetPrec(bigPrec).SetInt64(1)
	term := new(big.Float).SetPrec(bigPrec).SetInt64(1)
	for n := 1; n < 120; n++ {
		term.Mul(term, r)
		term.Quo(term, new(big.Float).SetPrec(bigPrec).SetInt64(int64(n)))
		sum.Add(sum, term)
	}
	return sum.SetMantExp(sum, int(k))
}

// correctlyRounded returns e^x rounded to nearest float64, following
// IEEE overflow and gradual underflow.
func correctlyRounded(x float64, ln2 *big.Float) float64 {
	f, _ := bigExp(x, ln2).Float64()
	return f
}

func TestExp2TableCorrectlyRounded(t *testing.T) {
	for j, got := range exp2Table {
		// 2^(j/64) = 2^j under six square roots.
		v := bigPow2(j)
		for i := 0; i < 6; i++ {
			v.Sqrt(v)
		}
		want, _ := v.Float64()
		if !sameBits(got, want) {
			t.Errorf("exp2Table[%d] = %x, correctly rounded 2^(%d/64) = %x", j, got, j, want)
		}
	}
}

func TestExpReductionConstants(t *testing.T) {
	ln2 := bigLn2()
	n64 := new(big.Float).SetPrec(bigPrec).SetInt64(64)
	hiN := new(big.Float).SetPrec(bigPrec).Quo(ln2, n64)
	if hi, _ := hiN.Float64(); !sameBits(hi, expLn2HiN) {
		t.Errorf("expLn2HiN = %x, ln2/64 rounds to %x", expLn2HiN, hi)
	}
	loN := hiN.Sub(hiN, new(big.Float).SetFloat64(expLn2HiN))
	if lo, _ := loN.Float64(); !sameBits(lo, expLn2LoN) {
		t.Errorf("expLn2LoN = %x, ln2/64 − hi rounds to %x", expLn2LoN, lo)
	}
	inv, _ := new(big.Float).SetPrec(bigPrec).Quo(n64, ln2).Float64()
	if !sameBits(inv, expInvLn2N) {
		t.Errorf("expInvLn2N = %x, 64/ln2 rounds to %x", expInvLn2N, inv)
	}
}

// TestExpAccuracy sweeps the finite range densely: Exp must stay
// within 2 ulp of math.Exp, the reference the simulator used before.
// The sweep crosses the short path's ±708 edges and the gradual
// underflow range. It stops at 709: above ~709.09 amd64's math.Exp
// returns +Inf for finite results (its 2^k scale factor overflows), so
// TestExpCorrectlyRoundedSample and TestExpSpecials cover the top.
func TestExpAccuracy(t *testing.T) {
	const n = 1 << 20
	lo, hi := expUnderflow, 709.0
	var worst uint64
	var worstX float64
	check := func(x float64) {
		got, want := Exp(x), math.Exp(x)
		if d := ulpDist(got, want); d > worst {
			worst, worstX = d, x
		}
	}
	for i := 0; i <= n; i++ {
		check(lo + (hi-lo)*float64(i)/n)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n/4; i++ {
		check(-2 + 6*rng.Float64()) // the leakage band, β·(T−T0)
		check(-1e-3 + 2e-3*rng.Float64())
	}
	if worst > 2 {
		t.Fatalf("Exp is %d ulp from math.Exp at x = %v (%x): got %v, want %v",
			worst, worstX, worstX, Exp(worstX), math.Exp(worstX))
	}
	t.Logf("max distance from math.Exp: %d ulp", worst)
}

// TestExpCorrectlyRoundedSample checks Exp against e^x computed with
// math/big and rounded once: at most 1 ulp away anywhere, including
// the subnormal results below e^-708.
func TestExpCorrectlyRoundedSample(t *testing.T) {
	ln2 := bigLn2()
	rng := rand.New(rand.NewSource(2))
	xs := []float64{}
	for i := 0; i < 400; i++ {
		xs = append(xs, expUnderflow+(709.78-expUnderflow)*rng.Float64(),
			-2+6*rng.Float64(), -745+37*rng.Float64())
	}
	for _, x := range xs {
		got, want := Exp(x), correctlyRounded(x, ln2)
		if d := ulpDist(got, want); d > 1 {
			t.Errorf("Exp(%v) = %x, correctly rounded %x: %d ulp", x, got, want, d)
		}
	}
}

// TestExpSpecials pins the exact answers at the special inputs and at
// both ends of the finite range.
func TestExpSpecials(t *testing.T) {
	ln2 := bigLn2()
	cases := []struct {
		x, want float64
	}{
		{0, 1},
		{math.Copysign(0, -1), 1},
		{math.Inf(1), math.Inf(1)},
		{math.Inf(-1), 0},
		{math.MaxFloat64, math.Inf(1)},
		{-math.MaxFloat64, 0},
		{math.Nextafter(expOverflow, math.Inf(1)), math.Inf(1)},
		// The largest input with a finite result, ~213 ulp below
		// MaxFloat64 (amd64 math.Exp returns +Inf here).
		{expOverflow, correctlyRounded(expOverflow, ln2)},
		// e^x just above 2^-1075 rounds up to the smallest subnormal;
		// the next float64 down is below 2^-1075 and rounds to zero.
		{expUnderflow, 0x1p-1074},
		{math.Nextafter(expUnderflow, math.Inf(-1)), 0},
		{-745, correctlyRounded(-745, ln2)},
		{-708.5, correctlyRounded(-708.5, ln2)}, // normal result through the slow path
		{708.5, correctlyRounded(708.5, ln2)},
		{1, math.E},
		{math.Ln2, 2},
	}
	for _, c := range cases {
		if got := Exp(c.x); !sameBits(got, c.want) {
			t.Errorf("Exp(%v) = %v (%x), want %v (%x)", c.x, got, got, c.want, c.want)
		}
	}
	if got := Exp(math.NaN()); !math.IsNaN(got) {
		t.Errorf("Exp(NaN) = %v, want NaN", got)
	}
	if !(correctlyRounded(expOverflow, ln2) < math.MaxFloat64) {
		t.Error("reference: e^expOverflow should be finite")
	}
}

func BenchmarkExpAffine45(b *testing.B) {
	// The CMP4 floorplan's 45 blocks, at die temperatures around T0.
	rng := rand.New(rand.NewSource(1))
	temps := make([]float64, 45)
	for i := range temps {
		temps[i] = 60 + 40*rng.Float64()
	}
	dst := make([]float64, len(temps))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExpAffineInto(dst, temps, 0.017, 85)
	}
}
