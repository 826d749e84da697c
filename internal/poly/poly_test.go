package poly

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewTrimsTrailingZeros(t *testing.T) {
	p := New(1, 2, 0, 0)
	if p.Degree() != 1 {
		t.Errorf("degree = %d, want 1", p.Degree())
	}
}

func TestEvalHorner(t *testing.T) {
	p := New(1, -3, 2) // 1 - 3x + 2x²
	cases := map[float64]float64{0: 1, 1: 0, 0.5: 0, 2: 3}
	for x, want := range cases {
		if got := p.Eval(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("Eval(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestAddSubScale(t *testing.T) {
	p := New(1, 2, 3)
	q := New(4, 5)
	sum := p.Add(q)
	if got := sum.Eval(2); got != p.Eval(2)+q.Eval(2) {
		t.Errorf("Add mismatch: %v", got)
	}
	diff := p.Sub(q)
	if got := diff.Eval(3); got != p.Eval(3)-q.Eval(3) {
		t.Errorf("Sub mismatch: %v", got)
	}
	if got := p.Scale(-2).Eval(1.5); got != -2*p.Eval(1.5) {
		t.Errorf("Scale mismatch: %v", got)
	}
}

func TestSubCancellationTrims(t *testing.T) {
	p := New(1, 2, 3)
	d := p.Sub(p)
	if !d.IsZero() {
		t.Errorf("p - p = %v, want zero", d)
	}
	if d.Degree() != 0 {
		t.Errorf("zero poly degree = %d, want 0", d.Degree())
	}
}

func TestMul(t *testing.T) {
	// (1+x)(1-x) = 1 - x²
	p := New(1, 1).Mul(New(1, -1))
	want := New(1, 0, -1)
	if len(p.C) != len(want.C) {
		t.Fatalf("coeff count %d, want %d", len(p.C), len(want.C))
	}
	for i := range p.C {
		if p.C[i] != want.C[i] {
			t.Errorf("coeff %d = %v, want %v", i, p.C[i], want.C[i])
		}
	}
}

func TestFromRoots(t *testing.T) {
	p := FromRoots(1, -2, 3)
	for _, r := range []float64{1, -2, 3} {
		if v := p.Eval(r); math.Abs(v) > 1e-12 {
			t.Errorf("Eval(root %v) = %v, want 0", r, v)
		}
	}
	if p.Degree() != 3 {
		t.Errorf("degree = %d, want 3", p.Degree())
	}
}

func TestQuadraticRootsReal(t *testing.T) {
	p := New(6, -5, 1) // (x-2)(x-3)
	roots := p.Roots()
	got := []float64{real(roots[0]), real(roots[1])}
	sort.Float64s(got)
	if math.Abs(got[0]-2) > 1e-12 || math.Abs(got[1]-3) > 1e-12 {
		t.Errorf("roots = %v, want [2 3]", got)
	}
}

func TestQuadraticRootsComplex(t *testing.T) {
	p := New(1, 0, 1) // x² + 1
	roots := p.Roots()
	for _, r := range roots {
		if math.Abs(real(r)) > 1e-12 || math.Abs(math.Abs(imag(r))-1) > 1e-12 {
			t.Errorf("root %v, want ±i", r)
		}
	}
}

func TestLinearRoot(t *testing.T) {
	roots := New(-6, 2).Roots() // 2x - 6
	if len(roots) != 1 || math.Abs(real(roots[0])-3) > 1e-12 {
		t.Errorf("roots = %v, want [3]", roots)
	}
}

func TestConstantHasNoRoots(t *testing.T) {
	if r := New(5).Roots(); r != nil {
		t.Errorf("constant roots = %v, want nil", r)
	}
}

func TestDurandKernerHighDegree(t *testing.T) {
	want := []float64{-4, -1.5, 0.5, 2, 7}
	p := FromRoots(want...)
	roots := p.Roots()
	if len(roots) != len(want) {
		t.Fatalf("got %d roots, want %d", len(roots), len(want))
	}
	got := make([]float64, len(roots))
	for i, r := range roots {
		if math.Abs(imag(r)) > 1e-6 {
			t.Errorf("root %v has spurious imaginary part", r)
		}
		got[i] = real(r)
	}
	sort.Float64s(got)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Errorf("root %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRootsComplexConjugatePairs(t *testing.T) {
	// (x²+2x+5)(x-1): roots -1±2i, 1
	p := New(5, 2, 1).Mul(New(-1, 1))
	roots := p.Roots()
	if len(roots) != 3 {
		t.Fatalf("got %d roots, want 3", len(roots))
	}
	for _, r := range roots {
		if v := cmplx.Abs(p.EvalC(r)); v > 1e-8 {
			t.Errorf("|p(%v)| = %g, not a root", r, v)
		}
	}
}

// Property: every value returned by Roots evaluates to ~0, for random
// polynomials built from random real roots.
func TestRootsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		rs := make([]float64, n)
		for i := range rs {
			rs[i] = math.Round((rng.Float64()*10-5)*4) / 4
			// Keep roots separated to avoid ill-conditioned clusters.
			for j := 0; j < i; j++ {
				if math.Abs(rs[i]-rs[j]) < 0.5 {
					rs[i] += 0.7
					j = -1
				}
			}
		}
		p := FromRoots(rs...)
		scale := 1 + math.Abs(p.C[len(p.C)-1])
		for _, r := range p.Roots() {
			if cmplx.Abs(p.EvalC(r))/scale > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	if s := New(0).String(); s != "0" {
		t.Errorf("zero poly string = %q", s)
	}
	if s := New(1, 0, 2).String(); s != "2·x^2 + 1" {
		t.Errorf("string = %q", s)
	}
}
