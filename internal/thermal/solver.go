package thermal

import (
	"fmt"

	"multitherm/internal/units"
)

// Step advances the transient solution by dt seconds through the
// template's exact ZOH discretization at dt: a single application of
// T ← Φ·T + Ψ·u with no truncation error and no stability limit, with
// power inputs held constant across the step (the simulator changes
// them only at trace-sample boundaries, every 28 µs). The first Step at
// a new dt arms the model there (see UseExact); later steps at the same
// dt reuse it. dt must be finite and positive, and a model adopted by a
// BatchModel must be advanced through the batch instead.
//
//mtlint:zeroalloc
func (m *Model) Step(dt units.Seconds) {
	if d := m.disc; d != nil && d.dt == float64(dt) { //mtlint:allow floatcmp the exact path is armed for bit-exactly this dt (both sides the same raw seconds value)
		m.stepExact(d)
		return
	}
	m.rearm(dt)
	m.stepExact(m.disc)
}

// rearm arms the model at a step size it is not armed for, off the hot
// path: building or fetching the discretization allocates, and so does
// formatting a panic, and neither may appear inside the zeroalloc-marked
// step body. Step has no error return, so a bad dt or a batch-owned
// lane panics here.
//
//go:noinline
func (m *Model) rearm(dt units.Seconds) {
	if err := m.UseExact(dt); err != nil {
		panic(err.Error())
	}
}

// HeatFlowToAmbient returns the instantaneous total heat flow from the
// model into the ambient. At steady state this equals the total input
// power (energy conservation).
func (m *Model) HeatFlowToAmbient() units.Watts {
	var w float64
	amb := float64(m.params.Ambient)
	for i, ga := range m.gAmbient {
		w += ga * (m.temps[i] - amb)
	}
	return units.Watts(w)
}

// StoredEnergy returns Σ C_i·(T_i − ambient): the thermal energy stored
// in the network relative to the ambient reference.
func (m *Model) StoredEnergy() units.Joules {
	var e float64
	amb := float64(m.params.Ambient)
	for i, c := range m.cap {
		e += c * (m.temps[i] - amb)
	}
	return units.Joules(e)
}

// BlockTimeConstant estimates block i's local thermal time constant
// C_i/ΣG_i — the scale on which its hotspot heats and cools. The paper
// relies on these being milliseconds to justify its 30 ms stop-go
// interval and 28 µs control sampling.
func (t *Template) BlockTimeConstant(i int) units.Seconds {
	if i < 0 || i >= t.nBlocks {
		panic(fmt.Sprintf("thermal: block index %d out of range", i))
	}
	return units.Seconds(t.cap[i] / t.gTotal[i])
}
