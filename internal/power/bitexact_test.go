package power

import (
	"math"
	"math/rand"
	"testing"

	"multitherm/internal/floorplan"
	"multitherm/internal/units"
)

// referenceBlockPower is the per-block assembly BlockPower replaced:
// one scan over every block, each looking up its core's state and
// evaluating DynamicScale and LeakageScale itself. BlockPower hoists
// the V/f factors to once per core and must stay bit-identical to it.
func referenceBlockPower(c *Calculator, activity []float64, cores []CoreState, temps units.TempVec) units.PowerVec {
	dst := units.MakePowerVec(len(c.fp.Blocks))
	allStalled := true
	for _, cs := range cores {
		if !cs.Stalled {
			allStalled = false
			break
		}
	}
	for i, b := range c.fp.Blocks {
		scale, stalled := units.ScaleFactor(1), allStalled
		if b.Core != floorplan.SharedCore && b.Core < len(cores) {
			scale = cores[b.Core].Scale
			stalled = cores[b.Core].Stalled
		}
		dyn := c.maxDyn[i] * activity[i] * c.cfg.DynamicScale(scale)
		if stalled {
			dyn = c.maxDyn[i] * activity[i] * c.cfg.StallDynFraction
			scale = 1
		}
		leak := c.leak0[i] * c.cfg.LeakageScale(units.Celsius(temps[i]), scale)
		dst[i] = dyn + leak
	}
	return dst
}

func TestBlockPowerBitIdenticalToPerBlockLoop(t *testing.T) {
	grid := func(rows, cols int) *floorplan.Floorplan {
		fp, err := floorplan.Grid(floorplan.GridSpec{
			Rows: rows, Cols: cols,
			Pattern: floorplan.PatternMixedRows, Cooling: floorplan.CoolingEdgeBoost,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	floor := DefaultConfig()
	floor.VFloor = 0.7
	configs := []struct {
		name string
		cfg  Config
	}{{"proportional", DefaultConfig()}, {"vfloor", floor}}

	// Each case maps (core, rng) to that core's state.
	cases := []struct {
		name  string
		state func(k int, rng *rand.Rand) CoreState
	}{
		{"mixed", func(k int, rng *rand.Rand) CoreState {
			return CoreState{Scale: units.ScaleFactor(0.2 + 0.8*rng.Float64())}
		}},
		{"stalled", func(k int, rng *rand.Rand) CoreState {
			return CoreState{Scale: units.ScaleFactor(0.2 + 0.8*rng.Float64()), Stalled: k%2 == 1}
		}},
		{"all-stalled", func(k int, rng *rand.Rand) CoreState {
			return CoreState{Scale: 1, Stalled: true}
		}},
		{"below-smin", func(k int, rng *rand.Rand) CoreState {
			return CoreState{Scale: units.ScaleFactor(0.19 * rng.Float64())}
		}},
	}
	for _, fp := range []*floorplan.Floorplan{floorplan.CMP4(), floorplan.Banias(), grid(3, 4), grid(8, 8)} {
		for _, cf := range configs {
			c, err := NewCalculator(fp, cf.cfg)
			if err != nil {
				t.Fatal(err)
			}
			nb, nc := len(fp.Blocks), fp.NumCores()
			for _, tc := range cases {
				rng := rand.New(rand.NewSource(int64(nb*31 + nc)))
				for trial := 0; trial < 20; trial++ {
					activity := make([]float64, nb)
					temps := make(units.TempVec, nb)
					for i := range activity {
						activity[i] = rng.Float64()
						temps[i] = 40 + 70*rng.Float64()
					}
					cores := make([]CoreState, nc)
					for k := range cores {
						cores[k] = tc.state(k, rng)
					}
					want := referenceBlockPower(c, activity, cores, temps)
					got := c.BlockPower(nil, activity, cores, temps)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s/%s/%s trial %d block %s: BlockPower %v, per-block loop %v",
								fp.Name, cf.name, tc.name, trial, fp.Blocks[i].Name, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// cmp4Tick returns one representative CMP4 control tick's inputs: mixed
// activity, every core at its own DVFS point, one core stop-go gated,
// die temperatures around T0.
func cmp4Tick(c *Calculator) (activity []float64, cores []CoreState, temps units.TempVec) {
	nb := len(c.fp.Blocks)
	rng := rand.New(rand.NewSource(1))
	activity = make([]float64, nb)
	temps = make(units.TempVec, nb)
	for i := range activity {
		activity[i] = rng.Float64()
		temps[i] = 60 + 40*rng.Float64()
	}
	cores = []CoreState{{Scale: 1}, {Scale: 0.8}, {Scale: 0.55}, {Scale: 1, Stalled: true}}
	return activity, cores, temps
}

func TestBlockPowerAllocFree(t *testing.T) {
	c := newCalc(t)
	activity, cores, temps := cmp4Tick(c)
	dst := units.MakePowerVec(len(temps))
	if n := testing.AllocsPerRun(100, func() { c.BlockPower(dst, activity, cores, temps) }); n != 0 {
		t.Fatalf("BlockPower allocates %v times per call, want 0", n)
	}
}

func BenchmarkBlockPowerCMP4(b *testing.B) {
	c := newCalc(b)
	activity, cores, temps := cmp4Tick(c)
	dst := units.MakePowerVec(len(temps))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.BlockPower(dst, activity, cores, temps)
	}
}
