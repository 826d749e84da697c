package thermal

import (
	"math"
	"sync"
	"testing"

	"multitherm/internal/floorplan"
	"multitherm/internal/units"
)

// TestTemplateMemoized verifies that TemplateFor returns the same
// shared template for identical (floorplan, params) and distinct
// templates otherwise.
func TestTemplateMemoized(t *testing.T) {
	fp := floorplan.CMP4()
	p := DefaultParams()
	a, err := TemplateFor(fp, p)
	if err != nil {
		t.Fatalf("TemplateFor: %v", err)
	}
	b, err := TemplateFor(fp, p)
	if err != nil {
		t.Fatalf("TemplateFor: %v", err)
	}
	if a != b {
		t.Fatal("same (floorplan, params) should share one template")
	}
	p2 := p
	p2.Ambient += 5
	c, err := TemplateFor(fp, p2)
	if err != nil {
		t.Fatalf("TemplateFor: %v", err)
	}
	if c == a {
		t.Fatal("different params must not share a template")
	}
}

// TestTemplateForConcurrent hammers the template cache from many
// goroutines; every caller must get a usable (and identical) template.
func TestTemplateForConcurrent(t *testing.T) {
	fp := floorplan.CMP4()
	p := DefaultParams()
	p.Ambient += 0.125 // private key so this test exercises the build race
	const workers = 16
	got := make([]*Template, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tpl, err := TemplateFor(fp, p)
			if err != nil {
				t.Errorf("TemplateFor: %v", err)
				return
			}
			got[w] = tpl
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if got[w] != got[0] {
			t.Fatal("concurrent TemplateFor callers must converge on one template")
		}
	}
}

// TestModelsShareTemplateNotState stamps two models from one template
// and drives only one of them; the sibling and the template arrays must
// be untouched.
func TestModelsShareTemplateNotState(t *testing.T) {
	tpl, err := TemplateFor(floorplan.CMP4(), DefaultParams())
	if err != nil {
		t.Fatalf("TemplateFor: %v", err)
	}
	hot, cold := tpl.NewModel(), tpl.NewModel()
	if hot.Template != cold.Template {
		t.Fatal("models from one template must share it")
	}
	g0 := append([]float64(nil), tpl.gTotal...)
	p := make(units.PowerVec, hot.NumBlocks())
	for i := range p {
		p[i] = 8
	}
	hot.SetPower(p)
	for s := 0; s < 200; s++ {
		hot.Step(1e-3)
	}
	amb := tpl.params.Ambient
	for i := 0; i < cold.NumNodes(); i++ {
		if cold.Temp(i) != amb {
			t.Fatalf("sibling model node %d drifted to %g", i, float64(cold.Temp(i)))
		}
	}
	for k := range g0 {
		if tpl.gTotal[k] != g0[k] {
			t.Fatalf("template conductance %d mutated by stepping a model", k)
		}
	}
	if hi, _ := hot.MaxBlockTemp(); hi <= amb+1 {
		t.Fatalf("driven model should have heated, got max %g", float64(hi))
	}
}

// TestDerivsMatchesConductanceMatrix checks the reference integrator's
// derivatives, taken from the template's sparse conductance matrix,
// against an independent dense evaluation C·dT/dt = P + gAmb·T_amb − G·T
// built from the edge list.
func TestDerivsMatchesConductanceMatrix(t *testing.T) {
	m := newCMP4Model(t)
	p := make(units.PowerVec, m.NumBlocks())
	temps := make(units.TempVec, m.NumNodes())
	for i := range p {
		p[i] = 0.5 + 0.25*float64(i%5)
	}
	for i := range temps {
		temps[i] = 45 + 3*math.Sin(float64(i))
	}
	m.SetPower(p)
	m.SetNodeTemps(temps)

	g := m.ConductanceMatrix()
	amb := float64(m.Params().Ambient)
	got := make([]float64, m.NumNodes())
	newRK4Ref(m).derivs(m.temps, got)
	for i := 0; i < m.NumNodes(); i++ {
		var sum float64
		for j := 0; j < m.NumNodes(); j++ {
			sum += g.At(i, j) * temps[j]
		}
		rhs := m.Template.gAmbient[i] * amb
		if i < m.NumBlocks() {
			rhs += p[i]
		}
		want := (rhs - sum) / m.Template.cap[i]
		if diff := math.Abs(got[i] - want); diff > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("node %d: derivs=%g dense=%g (diff %g)", i, got[i], want, diff)
		}
	}
}

// TestStepMatchesTextbookRK4 locks the reference integrator's
// accumulated stages to the classical k1/k2/k3/k4 formulation evaluated
// with the same derivative function.
func TestStepMatchesTextbookRK4(t *testing.T) {
	fused := newRK4Ref(newCMP4Model(t))
	ref := newRK4Ref(newCMP4Model(t))
	p := make(units.PowerVec, fused.m.NumBlocks())
	for i := range p {
		p[i] = 2 + float64(i%3)
	}
	fused.m.SetPower(p)
	ref.m.SetPower(p)

	n := ref.m.NumNodes()
	k1 := make([]float64, n)
	k2 := make([]float64, n)
	k3 := make([]float64, n)
	k4 := make([]float64, n)
	tmp := make([]float64, n)
	const h = 20e-6
	for step := 0; step < 500; step++ {
		fused.step(h)

		tv := ref.m.temps
		ref.derivs(tv, k1)
		for i := range tmp {
			tmp[i] = tv[i] + 0.5*h*k1[i]
		}
		ref.derivs(tmp, k2)
		for i := range tmp {
			tmp[i] = tv[i] + 0.5*h*k2[i]
		}
		ref.derivs(tmp, k3)
		for i := range tmp {
			tmp[i] = tv[i] + h*k3[i]
		}
		ref.derivs(tmp, k4)
		for i := range tv {
			tv[i] += h / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
		}
	}
	for i := 0; i < n; i++ {
		if diff := math.Abs(fused.m.temps[i] - ref.m.temps[i]); diff > 1e-9 {
			t.Fatalf("node %d: fused=%v textbook=%v (diff %g)", i, fused.m.temps[i], ref.m.temps[i], diff)
		}
	}
}

// TestStepSubstepsAcrossStabilityBound checks the reference
// integrator's substepping: a step larger than the stability bound must
// substep and land exactly where manual substepping lands.
func TestStepSubstepsAcrossStabilityBound(t *testing.T) {
	a := newRK4Ref(newCMP4Model(t))
	b := newRK4Ref(newCMP4Model(t))
	p := make(units.PowerVec, a.m.NumBlocks())
	for i := range p {
		p[i] = 4
	}
	a.m.SetPower(p)
	b.m.SetPower(p)

	dt := 2.5 * a.hMax // forces ceil(2.5) = 3 substeps
	a.step(dt)
	steps := int(math.Ceil(dt / b.hMax))
	h := dt / float64(steps)
	for s := 0; s < steps; s++ {
		b.rk4(h)
	}
	for i := 0; i < a.m.NumNodes(); i++ {
		if a.m.temps[i] != b.m.temps[i] {
			t.Fatalf("node %d: step=%v manual=%v", i, a.m.temps[i], b.m.temps[i])
		}
	}
	// And the result must be finite/sane: a 4 W/block pulse for ~40 ms
	// warms the die but cannot exceed a loose physical ceiling.
	hi, _ := a.m.MaxBlockTemp()
	if math.IsNaN(float64(hi)) || hi > 200 {
		t.Fatalf("substepped solution diverged: max %g", float64(hi))
	}
}

// TestStepZeroAllocs pins the zero-allocation contract of Step,
// including the first call, which arms the model (AllocsPerRun's
// warm-up run absorbs that one-time cost).
func TestStepZeroAllocs(t *testing.T) {
	m := newCMP4Model(t)
	p := make(units.PowerVec, m.NumBlocks())
	for i := range p {
		p[i] = 3
	}
	m.SetPower(p)
	const dt = 27.8e-6
	if allocs := testing.AllocsPerRun(200, func() { m.Step(dt) }); allocs != 0 {
		t.Fatalf("Step allocates %v times per call, want 0", allocs)
	}
}

// TestSetNodeTemps verifies the warmup-cache fast path installs state
// verbatim and rejects wrong lengths.
func TestSetNodeTemps(t *testing.T) {
	m := newCMP4Model(t)
	want := make(units.TempVec, m.NumNodes())
	for i := range want {
		want[i] = 50 + float64(i)
	}
	m.SetNodeTemps(want)
	for i := range want {
		if float64(m.Temp(i)) != want[i] {
			t.Fatalf("node %d: got %g want %g", i, float64(m.Temp(i)), want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("short vector should panic")
		}
	}()
	m.SetNodeTemps(make(units.TempVec, 3))
}
