package thermal

import (
	"math/rand"
	"testing"

	"multitherm/internal/floorplan"
)

const batchTestDt = 28e-6

// newBatchLanes stamps k models from the shared CMP4 template with
// distinct initial power vectors.
func newBatchLanes(t *testing.T, k int) []*Model {
	t.Helper()
	models := make([]*Model, k)
	for l := range models {
		m, err := New(floorplan.CMP4(), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		p := make([]float64, m.NumBlocks())
		for i := range p {
			p[i] = 0.5 + 0.25*float64(l) + 0.1*float64(i)
		}
		m.SetPower(p)
		models[l] = m
	}
	return models
}

// TestBatchMatchesSequentialExact is the core bit-identity guard: a
// lockstep batch must reproduce K independent exact-stepping models to
// the last bit, through a schedule that mixes constant-power ticks,
// per-lane power changes (exercising the dirty-lane input recompute),
// and ticks where every lane changes at once (the fused Ψ panel pass).
func TestBatchMatchesSequentialExact(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 8} {
		ref := newBatchLanes(t, k)
		bat := newBatchLanes(t, k)
		for _, m := range ref {
			if err := m.UseExact(batchTestDt); err != nil {
				t.Fatal(err)
			}
		}
		batch, err := NewBatch(bat, batchTestDt)
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(int64(100 + k)))
		p := make([]float64, ref[0].NumBlocks())
		for tick := 0; tick < 400; tick++ {
			switch tick % 4 {
			case 1: // one lane changes power: mixed dirty pattern
				l := rng.Intn(k)
				for i := range p {
					p[i] = 2 * rng.Float64()
				}
				ref[l].SetPower(p)
				bat[l].SetPower(p)
			case 3: // every lane changes: the fused all-dirty pass
				for l := 0; l < k; l++ {
					for i := range p {
						p[i] = 2 * rng.Float64()
					}
					ref[l].SetPower(p)
					bat[l].SetPower(p)
				}
			}
			for _, m := range ref {
				m.Step(batchTestDt)
			}
			batch.Step()
			for l := 0; l < k; l++ {
				for i := 0; i < ref[l].NumNodes(); i++ {
					if ref[l].temps[i] != bat[l].temps[i] {
						t.Fatalf("k=%d tick %d lane %d node %d: batch %v != sequential %v",
							k, tick, l, i, bat[l].temps[i], ref[l].temps[i])
					}
				}
			}
		}
	}
}

// TestBatchStepZeroAllocs asserts the batched tick is allocation-free
// in steady state, for both the constant-power and the all-lanes-dirty
// calling patterns.
func TestBatchStepZeroAllocs(t *testing.T) {
	models := newBatchLanes(t, 8)
	batch, err := NewBatch(models, batchTestDt)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, models[0].NumBlocks())
	for i := range p {
		p[i] = 1.5
	}
	if allocs := testing.AllocsPerRun(100, func() { batch.Step() }); allocs != 0 {
		t.Fatalf("constant-power batched tick allocates %.0f objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, m := range models {
			m.SetPower(p)
		}
		batch.Step()
	}); allocs != 0 {
		t.Fatalf("dirty batched tick allocates %.0f objects, want 0", allocs)
	}
}

// TestBatchAdoptedModelViewsAliasPanels checks that adopted models keep
// behaving as plain Models: SetPower marks only that lane dirty,
// BlockTemps/MaxBlockTemp read the live panel, and the views survive
// buffer swaps.
func TestBatchAdoptedModelViewsAliasPanels(t *testing.T) {
	models := newBatchLanes(t, 3)
	batch, err := NewBatch(models, batchTestDt)
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 5; tick++ {
		batch.Step()
	}
	for l, m := range models {
		hot, idx := m.MaxBlockTemp()
		if idx < 0 || hot <= 0 {
			t.Fatalf("lane %d: view lost after swaps: hot=%v idx=%d", l, hot, idx)
		}
		if got := m.Temp(idx); got != hot {
			t.Fatalf("lane %d: Temp(%d) = %v, MaxBlockTemp = %v", l, idx, got, hot)
		}
	}
	// Lanes must heat differently (distinct powers) — a panel-indexing
	// bug that cross-wires lanes would make them identical.
	a, _ := models[0].MaxBlockTemp()
	b, _ := models[2].MaxBlockTemp()
	if a == b {
		t.Fatalf("lanes 0 and 2 identical (%v) despite distinct power inputs", a)
	}
}

// TestBatchRejectsMixedTemplates checks the adoption-time guard.
func TestBatchRejectsMixedTemplates(t *testing.T) {
	a, err := New(floorplan.CMP4(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.Ambient = 40 // different params → different template
	b, err := New(floorplan.CMP4(), params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBatch([]*Model{a, b}, batchTestDt); err == nil {
		t.Fatal("batch accepted models from different templates")
	}
	if _, err := NewBatch(nil, batchTestDt); err == nil {
		t.Fatal("batch accepted zero lanes")
	}
}

// TestBatchAdoptedLaneCannotStepAlone checks that a lane's own Step
// and UseExact refuse to touch state the batch owns, before and after
// batched ticks.
func TestBatchAdoptedLaneCannotStepAlone(t *testing.T) {
	models := newBatchLanes(t, 2)
	batch, err := NewBatch(models, batchTestDt)
	if err != nil {
		t.Fatal(err)
	}
	batch.Step()
	before := models[0].NodeTemps()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Step on an adopted lane did not panic")
			}
		}()
		models[0].Step(batchTestDt)
	}()
	if err := models[0].UseExact(batchTestDt); err == nil {
		t.Error("UseExact on an adopted lane succeeded")
	}
	for i, v := range models[0].NodeTemps() {
		if v != before[i] {
			t.Fatalf("refused Step changed node %d: %g -> %g", i, before[i], v)
		}
	}
	batch.Step()
}
