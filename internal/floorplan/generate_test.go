package floorplan

import (
	"math"
	"testing"
)

func TestGridValidatesAndCovers(t *testing.T) {
	for _, tc := range []GridSpec{
		{Rows: 1, Cols: 1},
		{Rows: 2, Cols: 2, Pattern: PatternCheckerboard},
		{Rows: 4, Cols: 4, Pattern: PatternMixedRows, Cooling: CoolingEdgeBoost},
		{Rows: 3, Cols: 7, Pattern: PatternMixedRows, Cooling: CoolingCenterBoost},
		{Rows: 16, Cols: 16, Pattern: PatternMixedRows, Cooling: CoolingEdgeBoost},
		{Rows: 32, Cols: 32},
	} {
		fp, err := Grid(tc)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if got, want := fp.NumCores(), tc.Rows*tc.Cols; got != want {
			t.Errorf("%s: NumCores = %d, want %d", fp.Name, got, want)
		}
		if got, want := len(fp.Blocks), 4*tc.Rows*tc.Cols; got != want {
			t.Errorf("%s: %d blocks, want %d", fp.Name, got, want)
		}
		if cov := fp.Coverage(); math.Abs(cov-1) > 1e-9 {
			t.Errorf("%s: coverage %.12f, want 1", fp.Name, cov)
		}
	}
}

func TestGridMemoizesPointer(t *testing.T) {
	spec := GridSpec{Rows: 4, Cols: 4, Pattern: PatternMixedRows, Cooling: CoolingEdgeBoost}
	a, err := Grid(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Grid(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("equal specs returned distinct pointers; template caches will not coalesce")
	}
	// An explicit boost equal to the default is a different key and may
	// build a separate (but physically identical) instance.
	c, err := Grid(GridSpec{Rows: 4, Cols: 4, Pattern: PatternMixedRows, Cooling: CoolingEdgeBoost, BoostWK: DefaultGridBoost})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Blocks) != len(a.Blocks) {
		t.Error("explicit default boost changed the layout")
	}
}

func TestGridRejectsBadSpecs(t *testing.T) {
	for _, tc := range []GridSpec{
		{Rows: 0, Cols: 4},
		{Rows: 4, Cols: 0},
		{Rows: 33, Cols: 32}, // 1056 > MaxGridCores
		{Rows: 2, Cols: 2, BoostWK: -1},
	} {
		if _, err := Grid(tc); err == nil {
			t.Errorf("%+v: want error", tc)
		}
	}
}

// TestGridHasSensorBlocks pins the contract sensor.CoreHotspots relies
// on: every core carries both register-file hot-spot blocks.
func TestGridHasSensorBlocks(t *testing.T) {
	fp, err := Grid(GridSpec{Rows: 3, Cols: 3, Pattern: PatternMixedRows})
	if err != nil {
		t.Fatal(err)
	}
	for core := 0; core < fp.NumCores(); core++ {
		for _, kind := range []UnitKind{KindIntRegFile, KindFPRegFile, KindFXU, KindL1D} {
			if fp.FindCoreBlock(core, kind) < 0 {
				t.Errorf("core %d: missing %v block", core, kind)
			}
		}
	}
}

func TestGridCoolingPolicies(t *testing.T) {
	edge, err := Grid(GridSpec{Rows: 3, Cols: 3, Cooling: CoolingEdgeBoost})
	if err != nil {
		t.Fatal(err)
	}
	center, err := Grid(GridSpec{Rows: 3, Cols: 3, Cooling: CoolingCenterBoost})
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := Grid(GridSpec{Rows: 3, Cols: 3})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(fp *Floorplan, core int) float64 {
		idx, err := fp.Cores()
		if err != nil {
			t.Fatal(err)
		}
		var s float64
		for _, bi := range idx.Core(core) {
			s += fp.Blocks[bi].CoolingBoost
		}
		return s
	}
	// Core 4 is the single interior tile of a 3x3 grid.
	if got := sum(edge, 4); got != 0 {
		t.Errorf("edge boost on interior tile: %g", got)
	}
	if got := sum(edge, 0); math.Abs(got-DefaultGridBoost) > 1e-12 {
		t.Errorf("edge boost on corner tile = %g, want %g", got, DefaultGridBoost)
	}
	if got := sum(center, 4); math.Abs(got-DefaultGridBoost) > 1e-12 {
		t.Errorf("center boost on interior tile = %g, want %g", got, DefaultGridBoost)
	}
	if got := sum(center, 0); got != 0 {
		t.Errorf("center boost on corner tile: %g", got)
	}
	for core := 0; core < 9; core++ {
		if got := sum(uniform, core); got != 0 {
			t.Errorf("uniform policy boosted core %d: %g", core, got)
		}
	}
}

func TestGridCoreScales(t *testing.T) {
	spec := GridSpec{Rows: 3, Cols: 2, Pattern: PatternMixedRows}
	scales := GridCoreScales(spec)
	if len(scales) != 6 {
		t.Fatalf("len = %d", len(scales))
	}
	// Rows cycle perf (1.0), mid (0.85), eco (0.7).
	want := []float64{1.0, 1.0, 0.85, 0.85, 0.7, 0.7}
	for i := range want {
		if scales[i] != want[i] {
			t.Errorf("core %d: scale %g, want %g", i, scales[i], want[i])
		}
	}
	hom := GridCoreScales(GridSpec{Rows: 2, Cols: 2})
	for i, s := range hom {
		if s != 1.0 {
			t.Errorf("homogeneous core %d: scale %g", i, s)
		}
	}
}

func TestParseGridSpec(t *testing.T) {
	spec, err := ParseGridSpec("4x8")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Rows != 4 || spec.Cols != 8 {
		t.Errorf("parsed %+v", spec)
	}
	if spec.Pattern != PatternMixedRows || spec.Cooling != CoolingEdgeBoost {
		t.Errorf("defaults not applied: %+v", spec)
	}
	for _, bad := range []string{
		"", "x", "4x", "x8", "0x4", "64x64", "abc",
		// Negative dimensions in either position (and both).
		"-1x4", "4x-2", "-2x-2",
		// Integer overflow: wider than any int, and a pair that is
		// individually representable but whose product overflows.
		"99999999999999999999x2", "2x99999999999999999999",
		"3037000500x3037000500",
		// Trailing garbage after a well-formed prefix.
		"4x8x2", "4x8 ",
	} {
		if _, err := ParseGridSpec(bad); err == nil {
			t.Errorf("%q: want error", bad)
		}
	}
}

func TestGridNames(t *testing.T) {
	fp, err := Grid(GridSpec{Rows: 2, Cols: 3, Pattern: PatternCheckerboard, Cooling: CoolingCenterBoost})
	if err != nil {
		t.Fatal(err)
	}
	if fp.Name != "grid2x3-checkerboard-centerboost" {
		t.Errorf("name %q", fp.Name)
	}
	if fp.BlockIndex("c5_fpregfile") < 0 {
		t.Error("expected c5_fpregfile block")
	}
}
