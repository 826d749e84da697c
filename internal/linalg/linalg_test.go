package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewMatrixFrom(t *testing.T) {
	m, err := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatalf("NewMatrixFrom: %v", err)
	}
	if m.Rows() != 2 || m.Cols() != 2 {
		t.Fatalf("got %dx%d, want 2x2", m.Rows(), m.Cols())
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v, want 3", m.At(1, 0))
	}
}

func TestNewMatrixFromRagged(t *testing.T) {
	if _, err := NewMatrixFrom([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
	if _, err := NewMatrixFrom(nil); err == nil {
		t.Fatal("expected error for empty literal")
	}
}

func TestIdentityMulVec(t *testing.T) {
	id := Identity(4)
	x := []float64{1, -2, 3.5, 0}
	y := id.MulVec(x)
	for i := range x {
		if y[i] != x[i] {
			t.Errorf("identity MulVec changed element %d: %v -> %v", i, x[i], y[i])
		}
	}
}

func TestMul(t *testing.T) {
	a, _ := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	b, _ := NewMatrixFrom([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("Mul At(%d,%d) = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestIsSymmetric(t *testing.T) {
	s, _ := NewMatrixFrom([][]float64{{2, -1}, {-1, 2}})
	if !s.IsSymmetric(0) {
		t.Error("symmetric matrix reported asymmetric")
	}
	ns, _ := NewMatrixFrom([][]float64{{2, -1}, {0, 2}})
	if ns.IsSymmetric(1e-12) {
		t.Error("asymmetric matrix reported symmetric")
	}
	rect, _ := NewMatrixFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	if rect.IsSymmetric(0) {
		t.Error("rectangular matrix reported symmetric")
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a, _ := NewMatrixFrom([][]float64{
		{4, -1, 0},
		{-1, 4, -1},
		{0, -1, 4},
	})
	b := []float64{3, 2, 3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if r := Residual(a, x, b); r > 1e-12 {
		t.Errorf("residual %g too large", r)
	}
}

func TestSolveSingular(t *testing.T) {
	a, _ := NewMatrixFrom([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestSolveWrongRHSLength(t *testing.T) {
	a := Identity(3)
	f, err := Factor(a)
	if err != nil {
		t.Fatalf("Factor: %v", err)
	}
	if _, err := f.Solve([]float64{1, 2}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestFactorNonSquare(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := Factor(a); err == nil {
		t.Fatal("expected non-square error")
	}
}

// randomDiagDominant builds a random strictly diagonally dominant matrix,
// which is always nonsingular — the same structural class as thermal
// conductance matrices.
func randomDiagDominant(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := rng.Float64()*2 - 1
			m.Set(i, j, v)
			rowSum += math.Abs(v)
		}
		m.Set(i, i, rowSum+1+rng.Float64())
	}
	return m
}

func TestSolveRandomDiagDominantProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		a := randomDiagDominant(rng, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.Float64()*10 - 5
		}
		b := a.MulVec(want)
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if !almostEqual(x[i], want[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLUReuseMultipleRHS(t *testing.T) {
	a, _ := NewMatrixFrom([][]float64{
		{10, 1, 0, 0},
		{1, 10, 1, 0},
		{0, 1, 10, 1},
		{0, 0, 1, 10},
	})
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		b := []float64{float64(k), 1, -1, float64(-k)}
		x, err := f.Solve(b)
		if err != nil {
			t.Fatalf("solve %d: %v", k, err)
		}
		if r := Residual(a, x, b); r > 1e-10 {
			t.Errorf("rhs %d: residual %g", k, r)
		}
	}
}

func TestMulVecDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Identity(3).MulVec([]float64{1, 2})
}

func TestMaxAbs(t *testing.T) {
	a, _ := NewMatrixFrom([][]float64{{1, -7}, {3, 4}})
	if a.MaxAbs() != 7 {
		t.Errorf("MaxAbs = %v, want 7", a.MaxAbs())
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Identity(2)
	c := a.Clone()
	c.Set(0, 0, 42)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}
