package thermal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"multitherm/internal/floorplan"
	"multitherm/internal/linalg"
	"multitherm/internal/units"
)

func newCMP4Model(t testing.TB) *Model {
	t.Helper()
	m, err := New(floorplan.CMP4(), DefaultParams())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidateCatchesBadValues(t *testing.T) {
	p := DefaultParams()
	p.KSilicon = 0
	if err := p.Validate(); err == nil {
		t.Error("zero conductivity accepted")
	}
	p = DefaultParams()
	p.SinkSide = p.SpreaderSide / 2
	if err := p.Validate(); err == nil {
		t.Error("sink smaller than spreader accepted")
	}
}

func TestNewRejectsOversizeChip(t *testing.T) {
	p := DefaultParams()
	p.SpreaderSide = 5e-3 // smaller than the 16 mm chip
	p.SinkSide = 10e-3
	if _, err := New(floorplan.CMP4(), p); err == nil {
		t.Error("chip larger than spreader accepted")
	}
}

func TestConductanceMatrixSymmetricAndDominant(t *testing.T) {
	m := newCMP4Model(t)
	g := m.ConductanceMatrix()
	if !g.IsSymmetric(1e-12) {
		t.Error("conductance matrix not symmetric")
	}
	// Diagonal dominance: G[i][i] ≥ Σ|G[i][j]| with equality only for
	// nodes with no ambient path.
	for i := 0; i < g.Rows(); i++ {
		var off float64
		for j := 0; j < g.Cols(); j++ {
			if i != j {
				off += math.Abs(g.At(i, j))
			}
		}
		if g.At(i, i) < off-1e-9 {
			t.Errorf("row %d (%s) not diagonally dominant: %g < %g",
				i, m.NodeName(i), g.At(i, i), off)
		}
	}
}

func TestZeroPowerSteadyStateIsAmbient(t *testing.T) {
	m := newCMP4Model(t)
	temps, err := m.SteadyState(make(units.PowerVec, m.NumBlocks()))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range temps {
		if math.Abs(v-float64(m.Params().Ambient)) > 1e-6 {
			t.Errorf("node %s: steady temp %v, want ambient", m.NodeName(i), v)
		}
	}
}

func TestSteadyStateEnergyConservation(t *testing.T) {
	// At steady state, all injected power must exit through convection:
	// Σ gAmb_i·(T_i − T_amb) == Σ P_i.
	m := newCMP4Model(t)
	power := make(units.PowerVec, m.NumBlocks())
	var total float64
	rng := rand.New(rand.NewSource(7))
	for i := range power {
		power[i] = rng.Float64() * 3
		total += power[i]
	}
	if err := m.InitSteadyState(power); err != nil {
		t.Fatal(err)
	}
	if out := m.HeatFlowToAmbient(); math.Abs(float64(out)-total) > 1e-6*total {
		t.Errorf("ambient heat flow %v, want %v", out, total)
	}
}

func TestSteadyStateMonotoneInPower(t *testing.T) {
	// Superposition/monotonicity: adding power anywhere cannot cool any
	// node (the conductance matrix is an M-matrix).
	m := newCMP4Model(t)
	base := make(units.PowerVec, m.NumBlocks())
	for i := range base {
		base[i] = 1
	}
	t0, err := m.SteadyState(base)
	if err != nil {
		t.Fatal(err)
	}
	bumped := append(units.PowerVec(nil), base...)
	bumped[3] += 5
	t1, err := m.SteadyState(bumped)
	if err != nil {
		t.Fatal(err)
	}
	for i := range t0 {
		if t1[i] < t0[i]-1e-9 {
			t.Errorf("node %s cooled when power was added: %v -> %v",
				m.NodeName(i), t0[i], t1[i])
		}
	}
	// And the block receiving the extra power heats the most among die
	// blocks.
	maxRise, maxIdx := 0.0, -1
	for i := 0; i < m.NumBlocks(); i++ {
		if r := t1[i] - t0[i]; r > maxRise {
			maxRise, maxIdx = r, i
		}
	}
	if maxIdx != 3 {
		t.Errorf("hottest rise at block %d (%s), want 3", maxIdx, m.NodeName(maxIdx))
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	m := newCMP4Model(t)
	power := make(units.PowerVec, m.NumBlocks())
	for i := range power {
		power[i] = 1.5
	}
	want, err := m.SteadyState(power)
	if err != nil {
		t.Fatal(err)
	}
	// Start from the steady state itself: transient must hold it.
	if err := m.InitSteadyState(power); err != nil {
		t.Fatal(err)
	}
	m.SetPower(power)
	for i := 0; i < 1000; i++ {
		m.Step(100e-6)
	}
	got := m.NodeTemps()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.01 {
			t.Errorf("node %s drifted from steady state: %v vs %v",
				m.NodeName(i), got[i], want[i])
		}
	}
}

func TestTransientApproachesNewSteadyState(t *testing.T) {
	m := newCMP4Model(t)
	power := make(units.PowerVec, m.NumBlocks())
	power[m.fp.BlockIndex("c1_iregfile")] = 4
	want, err := m.SteadyState(power)
	if err != nil {
		t.Fatal(err)
	}
	m.SetUniform(m.Params().Ambient)
	m.SetPower(power)
	// Die-level transients settle in tens of ms, but the heat sink's
	// time constant is minutes, so run ~1000 s of sim time with coarse
	// steps; the exact step has no stability limit.
	for i := 0; i < 50000; i++ {
		m.Step(20e-3)
	}
	for i := 0; i < m.NumBlocks(); i++ {
		if math.Abs(float64(m.Temp(i))-want[i]) > 0.1 {
			t.Errorf("block %s: %v, want %v", m.NodeName(i), float64(m.Temp(i)), want[i])
		}
	}
}

func TestHotspotIsPoweredBlock(t *testing.T) {
	m := newCMP4Model(t)
	idx := m.fp.BlockIndex("c2_fpregfile")
	power := make(units.PowerVec, m.NumBlocks())
	for i := range power {
		power[i] = 0.3
	}
	power[idx] = 5
	if err := m.InitSteadyState(power); err != nil {
		t.Fatal(err)
	}
	_, hot := m.MaxBlockTemp()
	if hot != idx {
		t.Errorf("hotspot at %s, want c2_fpregfile", m.NodeName(hot))
	}
}

func TestDieTimeConstantsAreMilliseconds(t *testing.T) {
	// Paper §2.3: thermal variations have "slow heating and cooling time
	// constants (milliseconds)". Validate every die block's local τ is
	// in the 0.5 ms – 80 ms band under default parameters.
	m := newCMP4Model(t)
	for i := 0; i < m.NumBlocks(); i++ {
		tc := m.BlockTimeConstant(i)
		if tc < 0.5e-3 || tc > 80e-3 {
			t.Errorf("block %s: time constant %v s outside [0.5ms, 80ms]",
				m.NodeName(i), tc)
		}
	}
}

func TestStepCoolsWithoutPower(t *testing.T) {
	m := newCMP4Model(t)
	power := make(units.PowerVec, m.NumBlocks())
	for i := range power {
		power[i] = 2
	}
	if err := m.InitSteadyState(power); err != nil {
		t.Fatal(err)
	}
	start, _ := m.MaxBlockTemp()
	m.SetPower(make(units.PowerVec, m.NumBlocks()))
	m.Step(30e-3) // one stop-go stall interval
	after, _ := m.MaxBlockTemp()
	if after >= start {
		t.Errorf("chip did not cool during 30ms idle: %v -> %v", start, after)
	}
	// Cooling must be a few degrees in 30 ms (the stop-go premise:
	// "after lowering the temperature a few degrees through stalling").
	if start-after < 1 {
		t.Errorf("cooled only %.3f °C in 30 ms; stop-go premise broken", float64(start-after))
	}
}

func TestMaxStableStepPositive(t *testing.T) {
	m := newCMP4Model(t)
	h := maxStableStep(m.Template)
	if h <= 0 || math.IsInf(h, 1) {
		t.Fatalf("maxStableStep = %v", h)
	}
	// The 28 µs control period should not require absurd substepping.
	if h < 1e-6 {
		t.Errorf("stability bound %v s makes simulation impractical", h)
	}
}

func TestStepEnergyBalance(t *testing.T) {
	// Over any interval: ΔstoredEnergy = ∫(P_in − P_out)dt. Check with a
	// coarse trapezoid over small steps.
	m := newCMP4Model(t)
	power := make(units.PowerVec, m.NumBlocks())
	for i := range power {
		power[i] = 1
	}
	m.SetPower(power)
	m.SetUniform(m.Params().Ambient)
	var pin, pout float64
	const dt = 1e-3
	for i := 0; i < 500; i++ {
		outBefore := float64(m.HeatFlowToAmbient())
		m.Step(dt)
		outAfter := float64(m.HeatFlowToAmbient())
		pin += float64(m.NumBlocks()) * 1 * dt
		pout += (outBefore + outAfter) / 2 * dt
	}
	stored := float64(m.StoredEnergy())
	if rel := math.Abs(stored-(pin-pout)) / pin; rel > 0.01 {
		t.Errorf("energy balance off by %.2f%%: stored %v, net in %v", rel*100, stored, pin-pout)
	}
}

func TestSteadyStateLinearityProperty(t *testing.T) {
	// The RC network is linear: steadyState(a·P1 + b·P2) ==
	// a·steadyState(P1) + b·steadyState(P2) − (a+b−1)·ambient.
	m := newCMP4Model(t)
	amb := float64(m.Params().Ambient)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p1 := make(units.PowerVec, m.NumBlocks())
		p2 := make(units.PowerVec, m.NumBlocks())
		for i := range p1 {
			p1[i] = rng.Float64() * 2
			p2[i] = rng.Float64() * 2
		}
		a, b := rng.Float64()*2, rng.Float64()*2
		comb := make(units.PowerVec, len(p1))
		for i := range comb {
			comb[i] = a*p1[i] + b*p2[i]
		}
		t1, err1 := m.SteadyState(p1)
		t2, err2 := m.SteadyState(p2)
		tc, err3 := m.SteadyState(comb)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		for i := range tc {
			want := a*(t1[i]-amb) + b*(t2[i]-amb) + amb
			if math.Abs(tc[i]-want) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestBaniasModelBuilds(t *testing.T) {
	m, err := New(floorplan.Banias(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumBlocks() != 13 {
		t.Errorf("banias blocks = %d, want 13", m.NumBlocks())
	}
}

func TestSetPowerLengthPanics(t *testing.T) {
	m := newCMP4Model(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.SetPower(units.PowerVec{1})
}

func TestSteadyStateLengthError(t *testing.T) {
	m := newCMP4Model(t)
	if _, err := m.SteadyState(units.PowerVec{1}); err == nil {
		t.Fatal("expected length error")
	}
}

func TestBlockTempsCopy(t *testing.T) {
	m := newCMP4Model(t)
	temps := m.BlockTemps(nil)
	temps[0] = -1000
	if m.Temp(0) == -1000 {
		t.Error("BlockTemps returned aliased storage")
	}
	buf := make(units.TempVec, m.NumBlocks())
	if got := m.BlockTemps(buf); &got[0] != &buf[0] {
		t.Error("BlockTemps ignored provided buffer")
	}
}

func TestConductanceResidual(t *testing.T) {
	// Steady-state solve must satisfy G·T = rhs tightly.
	m := newCMP4Model(t)
	power := make(units.PowerVec, m.NumBlocks())
	power[0] = 10
	temps, err := m.SteadyState(power)
	if err != nil {
		t.Fatal(err)
	}
	g := m.ConductanceMatrix()
	rhs := make([]float64, m.NumNodes())
	rhs[0] = 10
	for i := 0; i < m.NumNodes(); i++ {
		rhs[i] += m.gAmbient[i] * float64(m.Params().Ambient)
	}
	if r := linalg.Residual(g, temps.Raw(), rhs); r > 1e-8 {
		t.Errorf("residual %g", r)
	}
}
