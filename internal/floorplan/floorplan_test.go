package floorplan

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCMP4Valid(t *testing.T) {
	f := CMP4()
	if err := f.Validate(); err != nil {
		t.Fatalf("CMP4 invalid: %v", err)
	}
	if got := f.NumCores(); got != 4 {
		t.Errorf("NumCores = %d, want 4", got)
	}
	if got := len(f.Blocks); got != 4*11+1 {
		t.Errorf("block count = %d, want 45", got)
	}
	if c := f.Coverage(); math.Abs(c-1) > 1e-6 {
		t.Errorf("coverage = %v, want 1.0", c)
	}
}

func TestBaniasValid(t *testing.T) {
	f := Banias()
	if err := f.Validate(); err != nil {
		t.Fatalf("Banias invalid: %v", err)
	}
	if f.NumCores() != 1 {
		t.Errorf("NumCores = %d, want 1", f.NumCores())
	}
	if f.BlockIndex("diode_site") < 0 {
		t.Error("missing diode_site block")
	}
	if c := f.Coverage(); math.Abs(c-1) > 1e-6 {
		t.Errorf("coverage = %v, want 1.0", c)
	}
}

func TestEveryCoreHasWatchedHotspots(t *testing.T) {
	// §5.1: thermal sensors sit at the two register file units on each
	// core; the floorplan must provide both for every core.
	f := CMP4()
	for core := 0; core < 4; core++ {
		if f.FindCoreBlock(core, KindIntRegFile) < 0 {
			t.Errorf("core %d missing integer register file", core)
		}
		if f.FindCoreBlock(core, KindFPRegFile) < 0 {
			t.Errorf("core %d missing fp register file", core)
		}
	}
}

func TestFindCoreBlockMissing(t *testing.T) {
	f := CMP4()
	if got := f.FindCoreBlock(0, KindOther); got != -1 {
		t.Errorf("FindCoreBlock for absent kind = %d, want -1", got)
	}
	if got := f.FindCoreBlock(9, KindFXU); got != -1 {
		t.Errorf("FindCoreBlock for absent core = %d, want -1", got)
	}
}

func TestCoreBlocksCount(t *testing.T) {
	f := CMP4()
	idx, err := f.Cores()
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumCores() != 4 {
		t.Fatalf("index covers %d cores, want 4", idx.NumCores())
	}
	for core := 0; core < 4; core++ {
		if got := len(idx.Core(core)); got != 11 {
			t.Errorf("core %d has %d blocks, want 11", core, got)
		}
	}
	// Shared L2 belongs to no core.
	for core := 0; core < 4; core++ {
		for _, i := range idx.Core(core) {
			if f.Blocks[i].Kind == KindL2 {
				t.Error("L2 attributed to a core")
			}
		}
	}
	if sh := idx.Shared(); len(sh) != 1 || f.Blocks[sh[0]].Kind != KindL2 {
		t.Errorf("shared blocks = %v, want the L2 alone", sh)
	}
}

// TestCoreIndexPartitionsBlocks checks the index on every built-in
// layout: each block appears exactly once, under its own core or the
// shared list, in floorplan order, and repeated calls share one index.
func TestCoreIndexPartitionsBlocks(t *testing.T) {
	grid, err := Grid(GridSpec{Rows: 3, Cols: 4, Pattern: PatternCheckerboard})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Floorplan{CMP4(), Banias(), grid} {
		idx, err := f.Cores()
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if again, _ := f.Cores(); again != idx {
			t.Errorf("%s: Cores rebuilt the index", f.Name)
		}
		if idx.NumCores() != f.NumCores() {
			t.Errorf("%s: index covers %d cores, NumCores %d", f.Name, idx.NumCores(), f.NumCores())
		}
		seen := make([]int, len(f.Blocks))
		check := func(owner int, ids []int32) {
			for k, i := range ids {
				if f.Blocks[i].Core != owner {
					t.Errorf("%s: block %s (core %d) listed under %d", f.Name, f.Blocks[i].Name, f.Blocks[i].Core, owner)
				}
				if k > 0 && ids[k-1] >= i {
					t.Errorf("%s: core %d's blocks out of floorplan order: %v", f.Name, owner, ids)
				}
				seen[i]++
			}
		}
		for c := 0; c < idx.NumCores(); c++ {
			check(c, idx.Core(c))
		}
		check(SharedCore, idx.Shared())
		for i, n := range seen {
			if n != 1 {
				t.Errorf("%s: block %s indexed %d times", f.Name, f.Blocks[i].Name, n)
			}
		}
	}
}

// TestValidateRejectsImpossibleCoreIDs: per-core tables are indexed by
// core id, so ids must be exactly 0..NumCores()-1 plus SharedCore.
func TestValidateRejectsImpossibleCoreIDs(t *testing.T) {
	for _, tc := range []struct {
		cores []int
		ok    bool
	}{
		{[]int{0, 1}, true},
		{[]int{1, 0}, true},
		{[]int{0, SharedCore}, true},
		{[]int{SharedCore, SharedCore}, true},
		{[]int{0, 2}, false},          // gap: NumCores 2, id 2 out of range
		{[]int{0, -2}, false},         // negative id that is not SharedCore
		{[]int{1, 1}, false},          // NumCores 1, so id 1 is out of range
		{[]int{SharedCore, 1}, false}, // lone core must be core 0
	} {
		f := &Floorplan{Name: "ids", ChipW: 2 * mm, ChipH: 1 * mm, Blocks: []Block{
			{Name: "a", Core: tc.cores[0], X: 0, Y: 0, W: 1 * mm, H: 1 * mm},
			{Name: "b", Core: tc.cores[1], X: 1 * mm, Y: 0, W: 1 * mm, H: 1 * mm},
		}}
		err := f.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("cores %v: Validate err = %v, want ok=%t", tc.cores, err, tc.ok)
		}
		if _, ierr := f.Cores(); (ierr == nil) != tc.ok {
			t.Errorf("cores %v: Cores err = %v, want ok=%t", tc.cores, ierr, tc.ok)
		}
	}
}

func TestSharedEdgeVertical(t *testing.T) {
	f := &Floorplan{Name: "t", ChipW: 4 * mm, ChipH: 2 * mm, Blocks: []Block{
		{Name: "a", X: 0, Y: 0, W: 2 * mm, H: 2 * mm},
		{Name: "b", X: 2 * mm, Y: 0.5 * mm, W: 2 * mm, H: 1 * mm},
	}}
	l, d := f.SharedEdge(0, 1)
	if math.Abs(l-1*mm) > 1e-12 {
		t.Errorf("shared length = %v, want 1mm", l)
	}
	if math.Abs(d-2*mm) > 1e-12 {
		t.Errorf("normal distance = %v, want 2mm", d)
	}
}

func TestSharedEdgeNone(t *testing.T) {
	f := &Floorplan{Name: "t", ChipW: 10 * mm, ChipH: 10 * mm, Blocks: []Block{
		{Name: "a", X: 0, Y: 0, W: 1 * mm, H: 1 * mm},
		{Name: "b", X: 5 * mm, Y: 5 * mm, W: 1 * mm, H: 1 * mm},
	}}
	if l, _ := f.SharedEdge(0, 1); l != 0 {
		t.Errorf("disjoint blocks report shared edge %v", l)
	}
}

func TestSharedEdgeCornerTouchIsNotAdjacent(t *testing.T) {
	f := &Floorplan{Name: "t", ChipW: 2 * mm, ChipH: 2 * mm, Blocks: []Block{
		{Name: "a", X: 0, Y: 0, W: 1 * mm, H: 1 * mm},
		{Name: "b", X: 1 * mm, Y: 1 * mm, W: 1 * mm, H: 1 * mm},
	}}
	if l, _ := f.SharedEdge(0, 1); l != 0 {
		t.Errorf("corner-touching blocks report shared edge %v", l)
	}
}

func TestAdjacencySymmetricAndComplete(t *testing.T) {
	f := CMP4()
	adj := f.Adjacencies()
	if len(adj) == 0 {
		t.Fatal("no adjacencies found")
	}
	// Each core's blocks must form a connected cluster with the L2 strip
	// reachable from every core (heat flows core→L2 laterally).
	l2 := f.BlockIndex("l2")
	reach := map[int]bool{l2: true}
	frontier := []int{l2}
	neighbors := map[int][]int{}
	for _, a := range adj {
		neighbors[a.I] = append(neighbors[a.I], a.J)
		neighbors[a.J] = append(neighbors[a.J], a.I)
	}
	for len(frontier) > 0 {
		n := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, m := range neighbors[n] {
			if !reach[m] {
				reach[m] = true
				frontier = append(frontier, m)
			}
		}
	}
	for i := range f.Blocks {
		if !reach[i] {
			t.Errorf("block %q not laterally connected to the rest of the die", f.Blocks[i].Name)
		}
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	f := &Floorplan{Name: "bad", ChipW: 2 * mm, ChipH: 2 * mm, Blocks: []Block{
		{Name: "a", X: 0, Y: 0, W: 1.5 * mm, H: 1 * mm},
		{Name: "b", X: 1 * mm, Y: 0, W: 1 * mm, H: 1 * mm},
	}}
	if err := f.Validate(); err == nil {
		t.Error("overlap not detected")
	}
}

func TestValidateCatchesOutOfBounds(t *testing.T) {
	f := &Floorplan{Name: "bad", ChipW: 1 * mm, ChipH: 1 * mm, Blocks: []Block{
		{Name: "a", X: 0.5 * mm, Y: 0, W: 1 * mm, H: 1 * mm},
	}}
	if err := f.Validate(); err == nil {
		t.Error("out-of-bounds block not detected")
	}
}

func TestValidateCatchesDuplicateNames(t *testing.T) {
	f := &Floorplan{Name: "bad", ChipW: 4 * mm, ChipH: 1 * mm, Blocks: []Block{
		{Name: "a", X: 0, Y: 0, W: 1 * mm, H: 1 * mm},
		{Name: "a", X: 2 * mm, Y: 0, W: 1 * mm, H: 1 * mm},
	}}
	if err := f.Validate(); err == nil {
		t.Error("duplicate names not detected")
	}
}

func TestValidateCatchesEmptyAndBadDims(t *testing.T) {
	if err := (&Floorplan{Name: "e", ChipW: 1, ChipH: 1}).Validate(); err == nil {
		t.Error("empty floorplan not detected")
	}
	f := &Floorplan{Name: "z", ChipW: 0, ChipH: 1, Blocks: []Block{{Name: "a", W: 1, H: 1}}}
	if err := f.Validate(); err == nil {
		t.Error("zero chip width not detected")
	}
	g := &Floorplan{Name: "n", ChipW: 1, ChipH: 1, Blocks: []Block{{Name: "a", W: 0, H: 1}}}
	if err := g.Validate(); err == nil {
		t.Error("zero block width not detected")
	}
}

func TestBlockGeometryAccessors(t *testing.T) {
	b := Block{X: 1, Y: 2, W: 3, H: 4}
	if b.Area() != 12 {
		t.Errorf("Area = %v", b.Area())
	}
	if b.CenterX() != 2.5 || b.CenterY() != 4 {
		t.Errorf("center = (%v,%v)", b.CenterX(), b.CenterY())
	}
}

func TestUnitKindString(t *testing.T) {
	if KindIntRegFile.String() != "iregfile" {
		t.Errorf("got %q", KindIntRegFile.String())
	}
	if UnitKind(99).String() == "" {
		t.Error("unknown kind renders empty")
	}
}

// Property: shared-edge computation is symmetric in its arguments.
func TestSharedEdgeSymmetryProperty(t *testing.T) {
	f := CMP4()
	n := len(f.Blocks)
	check := func(i, j uint8) bool {
		a, b := int(i)%n, int(j)%n
		if a == b {
			return true
		}
		l1, d1 := f.SharedEdge(a, b)
		l2, d2 := f.SharedEdge(b, a)
		return l1 == l2 && d1 == d2
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRenderFloorplan(t *testing.T) {
	out := CMP4().Render(64)
	if !strings.Contains(out, "cmp4") || !strings.Contains(out, "legend:") {
		t.Errorf("render missing header/legend:\n%s", out)
	}
	// Every block must appear in the legend.
	for _, b := range CMP4().Blocks {
		if !strings.Contains(out, b.Name) {
			t.Errorf("legend missing block %s", b.Name)
		}
	}
	// Tiny width clamps rather than panicking.
	if small := Banias().Render(1); small == "" {
		t.Error("small render empty")
	}
}
