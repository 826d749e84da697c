package thermal

import "math"

// rk4Ref is an explicit classical-RK4 integrator over a Model's state
// and power inputs, kept as an independent reference for the exact ZOH
// step: it evaluates derivatives straight from the sparse conductance
// matrix and never forms a matrix exponential, so agreement between the
// two checks Φ and Ψ. The model it wraps must be advanced only
// through the reference.
type rk4Ref struct {
	m *Model

	// hMax is the stability bound, computed once for the network.
	hMax float64

	// scratch buffers for the stages
	acc, k, tmpA, tmpB []float64
}

func newRK4Ref(m *Model) *rk4Ref {
	return &rk4Ref{
		m:    m,
		hMax: maxStableStep(m.Template),
		acc:  make([]float64, m.n),
		k:    make([]float64, m.n),
		tmpA: make([]float64, m.n),
		tmpB: make([]float64, m.n),
	}
}

// maxStableStep derives a conservative upper bound on the explicit
// integration step: the classical RK4 stability limit is ~2.78/λ for
// the fastest eigenvalue λ; we bound λ by max_i (ΣG_i/C_i) and keep a
// 2× margin.
func maxStableStep(t *Template) float64 {
	maxRate := 0.0
	for i := 0; i < t.n; i++ {
		if r := t.gTotal[i] / t.cap[i]; r > maxRate {
			maxRate = r
		}
	}
	if maxRate == 0 {
		return math.Inf(1)
	}
	return 1.39 / maxRate
}

// derivs computes dT/dt = C⁻¹·(P + gAmb·T_amb − G·T) into out given
// node temperatures t.
func (r *rk4Ref) derivs(t, out []float64) {
	tpl := r.m.Template
	tpl.gsp.MulVecInto(out, t)
	for i := range out {
		out[i] = (r.m.power[i] + tpl.ambFlow[i] - out[i]) * tpl.invCap[i]
	}
}

// step advances the model by dt, substepping if dt exceeds the
// stability bound.
func (r *rk4Ref) step(dt float64) {
	steps := 1
	if dt > r.hMax {
		steps = int(math.Ceil(dt / r.hMax))
	}
	h := dt / float64(steps)
	for s := 0; s < steps; s++ {
		r.rk4(h)
	}
}

// rk4 performs one classical RK4 step of size h with the k-sum
// accumulated stage by stage, so no stage keeps more than one
// derivative vector alive.
func (r *rk4Ref) rk4(h float64) {
	t := r.m.temps
	acc, k, ta, tb := r.acc, r.k, r.tmpA, r.tmpB
	r.derivs(t, k) // k1: seed acc, stage input temps + h/2·k1
	for i := range t {
		acc[i] = k[i]
		ta[i] = t[i] + 0.5*h*k[i]
	}
	r.derivs(ta, k) // k2
	for i := range t {
		acc[i] += 2 * k[i]
		tb[i] = t[i] + 0.5*h*k[i]
	}
	r.derivs(tb, k) // k3
	for i := range t {
		acc[i] += 2 * k[i]
		ta[i] = t[i] + h*k[i]
	}
	r.derivs(ta, k) // k4 and the combined update
	w := h / 6
	for i := range t {
		t[i] += w * (acc[i] + k[i])
	}
}
