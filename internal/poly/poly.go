// Package poly implements real-coefficient polynomials and complex root
// finding. It is the numerical substrate for the control package's pole
// and stability analysis — the role MATLAB's root-locus tooling plays in
// the paper (§4.1).
package poly

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Poly is a polynomial with real coefficients, stored lowest degree
// first: P(x) = C[0] + C[1]·x + C[2]·x² + …
type Poly struct {
	C []float64
}

// New creates a polynomial from coefficients ordered lowest degree
// first. Trailing zero (highest-degree) coefficients are trimmed.
func New(coeffs ...float64) Poly {
	p := Poly{C: append([]float64(nil), coeffs...)}
	return p.trim()
}

// FromRoots builds the monic polynomial with the given real roots.
func FromRoots(roots ...float64) Poly {
	p := New(1)
	for _, r := range roots {
		p = p.Mul(New(-r, 1))
	}
	return p
}

func (p Poly) trim() Poly {
	n := len(p.C)
	for n > 1 && p.C[n-1] == 0 {
		n--
	}
	p.C = p.C[:n]
	return p
}

// Degree returns the polynomial degree. The zero polynomial has degree 0.
func (p Poly) Degree() int {
	if len(p.C) == 0 {
		return 0
	}
	return len(p.C) - 1
}

// IsZero reports whether all coefficients are zero.
func (p Poly) IsZero() bool {
	for _, c := range p.C {
		if c != 0 {
			return false
		}
	}
	return true
}

// Eval evaluates the polynomial at real x using Horner's method.
func (p Poly) Eval(x float64) float64 {
	var v float64
	for i := len(p.C) - 1; i >= 0; i-- {
		v = v*x + p.C[i]
	}
	return v
}

// EvalC evaluates the polynomial at complex z.
func (p Poly) EvalC(z complex128) complex128 {
	var v complex128
	for i := len(p.C) - 1; i >= 0; i-- {
		v = v*z + complex(p.C[i], 0)
	}
	return v
}

// Add returns p + q.
func (p Poly) Add(q Poly) Poly {
	n := len(p.C)
	if len(q.C) > n {
		n = len(q.C)
	}
	out := make([]float64, n)
	for i := range out {
		if i < len(p.C) {
			out[i] += p.C[i]
		}
		if i < len(q.C) {
			out[i] += q.C[i]
		}
	}
	return Poly{C: out}.trim()
}

// Sub returns p − q.
func (p Poly) Sub(q Poly) Poly { return p.Add(q.Scale(-1)) }

// Scale returns k·p.
func (p Poly) Scale(k float64) Poly {
	out := make([]float64, len(p.C))
	for i, c := range p.C {
		out[i] = k * c
	}
	return Poly{C: out}.trim()
}

// Mul returns p·q.
func (p Poly) Mul(q Poly) Poly {
	if p.IsZero() || q.IsZero() {
		return New(0)
	}
	out := make([]float64, len(p.C)+len(q.C)-1)
	for i, a := range p.C {
		if a == 0 {
			continue
		}
		for j, b := range q.C {
			out[i+j] += a * b
		}
	}
	return Poly{C: out}.trim()
}

// String renders the polynomial in conventional descending order.
func (p Poly) String() string {
	if p.IsZero() {
		return "0"
	}
	var parts []string
	for i := len(p.C) - 1; i >= 0; i-- {
		c := p.C[i]
		if c == 0 {
			continue
		}
		switch i {
		case 0:
			parts = append(parts, fmt.Sprintf("%g", c))
		case 1:
			parts = append(parts, fmt.Sprintf("%g·x", c))
		default:
			parts = append(parts, fmt.Sprintf("%g·x^%d", c, i))
		}
	}
	return strings.Join(parts, " + ")
}

// Roots returns all complex roots of the polynomial using the
// Durand–Kerner (Weierstrass) simultaneous iteration. Results are
// unordered. Returns nil for constant polynomials.
func (p Poly) Roots() []complex128 {
	p = p.trim()
	deg := p.Degree()
	if deg == 0 {
		return nil
	}
	if deg == 1 {
		// a + b·x = 0
		return []complex128{complex(-p.C[0]/p.C[1], 0)}
	}
	if deg == 2 {
		return quadraticRoots(p.C[0], p.C[1], p.C[2])
	}
	// Normalize to monic form for the iteration.
	lead := p.C[deg]
	monic := make([]complex128, deg+1)
	for i, c := range p.C {
		monic[i] = complex(c/lead, 0)
	}
	evalMonic := func(z complex128) complex128 {
		var v complex128
		for i := deg; i >= 0; i-- {
			v = v*z + monic[i]
		}
		return v
	}
	// Initial guesses on a spiral that is neither real nor a root of
	// unity pattern, per the standard Durand–Kerner setup.
	roots := make([]complex128, deg)
	seed := complex(0.4, 0.9)
	roots[0] = seed
	for i := 1; i < deg; i++ {
		roots[i] = roots[i-1] * seed
	}
	const maxIter = 500
	for iter := 0; iter < maxIter; iter++ {
		var maxDelta float64
		for i := range roots {
			num := evalMonic(roots[i])
			den := complex(1, 0)
			for j := range roots {
				if j != i {
					den *= roots[i] - roots[j]
				}
			}
			if den == 0 {
				// Perturb a collision and continue.
				roots[i] += complex(1e-6, 1e-6)
				continue
			}
			delta := num / den
			roots[i] -= delta
			if d := cmplx.Abs(delta); d > maxDelta {
				maxDelta = d
			}
		}
		if maxDelta < 1e-13 {
			break
		}
	}
	// Snap tiny imaginary parts of (near-)real roots to the real axis so
	// downstream stability checks are not fooled by iteration noise.
	for i, r := range roots {
		if math.Abs(imag(r)) < 1e-9*(1+math.Abs(real(r))) {
			roots[i] = complex(real(r), 0)
		}
	}
	return roots
}

func quadraticRoots(c0, c1, c2 float64) []complex128 {
	disc := c1*c1 - 4*c2*c0
	if disc >= 0 {
		sq := math.Sqrt(disc)
		// Numerically stable form: compute the larger-magnitude root
		// first, derive the other from the product of roots.
		var r1 float64
		if c1 >= 0 {
			r1 = (-c1 - sq) / (2 * c2)
		} else {
			r1 = (-c1 + sq) / (2 * c2)
		}
		var r2 float64
		if r1 != 0 {
			r2 = (c0 / c2) / r1
		} else {
			r2 = -c1 / c2
		}
		return []complex128{complex(r1, 0), complex(r2, 0)}
	}
	sq := math.Sqrt(-disc)
	re := -c1 / (2 * c2)
	im := sq / (2 * c2)
	return []complex128{complex(re, im), complex(re, -im)}
}
