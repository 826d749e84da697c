// Package floorplan describes the physical layout of processor dies:
// rectangular functional blocks with positions, sizes, core ownership,
// and adjacency. A floorplan is the required geometric input to the
// thermal model (paper §3.2), which needs "the locations and adjacencies
// of various processor components".
package floorplan

import (
	"fmt"
	"math"
)

// UnitKind classifies a block by microarchitectural function. The DTM
// policies care about this classification: integer benchmarks stress
// KindIntRegFile, floating-point benchmarks stress KindFPRegFile
// (paper §3.4), and those two units carry the per-core thermal sensors
// (§5.1).
type UnitKind int

const (
	KindOther      UnitKind = iota
	KindFXU                 // fixed-point (integer) execution units
	KindFPU                 // floating-point execution units
	KindLSU                 // load/store units
	KindBXU                 // branch execution unit
	KindIntRegFile          // integer register file + associated logic
	KindFPRegFile           // floating-point register file + associated logic
	KindL1I                 // L1 instruction cache
	KindL1D                 // L1 data cache
	KindBPred               // branch predictor tables
	KindRename              // rename/dispatch logic
	KindIssueQ              // issue queues / reservation stations
	KindL2                  // shared L2 cache

	// NumUnitKinds is the number of distinct unit kinds; useful for
	// fixed-size per-kind arrays.
	NumUnitKinds
)

var kindNames = map[UnitKind]string{
	KindOther: "other", KindFXU: "fxu", KindFPU: "fpu", KindLSU: "lsu",
	KindBXU: "bxu", KindIntRegFile: "iregfile", KindFPRegFile: "fpregfile",
	KindL1I: "l1i", KindL1D: "l1d", KindBPred: "bpred",
	KindRename: "rename", KindIssueQ: "issueq", KindL2: "l2",
}

func (k UnitKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("UnitKind(%d)", int(k))
}

// SharedCore marks blocks (such as the L2) not owned by any single core.
const SharedCore = -1

// Block is one rectangular floorplan unit. Coordinates are in meters
// with the origin at the chip's lower-left corner.
type Block struct {
	Name string
	Kind UnitKind
	Core int // owning core index, or SharedCore
	X, Y float64
	W, H float64

	// CoolingBoost is extra thermal conductance from this block
	// straight to ambient, in W/K, on top of the package path the
	// thermal model derives from geometry. Zero for ordinary blocks;
	// generated many-core floorplans use it to model per-position
	// cooling (e.g. stronger heat-sink airflow over edge tiles).
	CoolingBoost float64
}

// Area returns the block area in m².
func (b Block) Area() float64 { return b.W * b.H }

// CenterX returns the x coordinate of the block center.
func (b Block) CenterX() float64 { return b.X + b.W/2 }

// CenterY returns the y coordinate of the block center.
func (b Block) CenterY() float64 { return b.Y + b.H/2 }

// Floorplan is a complete die layout.
type Floorplan struct {
	Name   string
	ChipW  float64 // chip extent in x, meters
	ChipH  float64 // chip extent in y, meters
	Blocks []Block
}

// NumCores returns the number of distinct owning cores (excluding
// shared blocks).
func (f *Floorplan) NumCores() int {
	seen := map[int]bool{}
	for _, b := range f.Blocks {
		if b.Core != SharedCore {
			seen[b.Core] = true
		}
	}
	return len(seen)
}

// BlockIndex returns the index of the named block, or -1.
func (f *Floorplan) BlockIndex(name string) int {
	for i, b := range f.Blocks {
		if b.Name == name {
			return i
		}
	}
	return -1
}

// FindCoreBlock returns the index of core's block of the given kind, or
// -1 if the core has none.
func (f *Floorplan) FindCoreBlock(core int, kind UnitKind) int {
	for i, b := range f.Blocks {
		if b.Core == core && b.Kind == kind {
			return i
		}
	}
	return -1
}

// ChipArea returns the total chip area in m².
func (f *Floorplan) ChipArea() float64 { return f.ChipW * f.ChipH }

const geomEps = 1e-9 // meters; ~1 nm slop for float layout arithmetic

// SharedEdge returns the length of the boundary shared by blocks i and
// j, and the center-to-center distance along the normal of that edge.
// Returns (0, 0) if the blocks are not adjacent.
func (f *Floorplan) SharedEdge(i, j int) (length, dist float64) {
	a, b := f.Blocks[i], f.Blocks[j]
	// Vertical shared edge: a's right == b's left or vice versa.
	if math.Abs(a.X+a.W-b.X) < geomEps || math.Abs(b.X+b.W-a.X) < geomEps {
		lo := math.Max(a.Y, b.Y)
		hi := math.Min(a.Y+a.H, b.Y+b.H)
		if hi-lo > geomEps {
			return hi - lo, a.W/2 + b.W/2
		}
	}
	// Horizontal shared edge: a's top == b's bottom or vice versa.
	if math.Abs(a.Y+a.H-b.Y) < geomEps || math.Abs(b.Y+b.H-a.Y) < geomEps {
		lo := math.Max(a.X, b.X)
		hi := math.Min(a.X+a.W, b.X+b.W)
		if hi-lo > geomEps {
			return hi - lo, a.H/2 + b.H/2
		}
	}
	return 0, 0
}

// Adjacency lists every adjacent block pair with its shared edge data.
type Adjacency struct {
	I, J   int
	Length float64 // shared edge length, m
	Dist   float64 // center-to-center distance normal to the edge, m
}

// Adjacencies computes all adjacent pairs (i < j).
func (f *Floorplan) Adjacencies() []Adjacency {
	var out []Adjacency
	for i := range f.Blocks {
		for j := i + 1; j < len(f.Blocks); j++ {
			if l, d := f.SharedEdge(i, j); l > 0 {
				out = append(out, Adjacency{I: i, J: j, Length: l, Dist: d})
			}
		}
	}
	return out
}

// Validate checks structural soundness: non-empty, positive dimensions,
// unique names, core ids that are SharedCore or in [0, NumCores()),
// blocks within chip bounds, and no overlapping blocks.
func (f *Floorplan) Validate() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("floorplan %q: no blocks", f.Name)
	}
	if f.ChipW <= 0 || f.ChipH <= 0 {
		return fmt.Errorf("floorplan %q: non-positive chip dimensions", f.Name)
	}
	names := map[string]bool{}
	for _, b := range f.Blocks {
		if b.Name == "" {
			return fmt.Errorf("floorplan %q: block with empty name", f.Name)
		}
		if names[b.Name] {
			return fmt.Errorf("floorplan %q: duplicate block name %q", f.Name, b.Name)
		}
		names[b.Name] = true
		if b.W <= 0 || b.H <= 0 {
			return fmt.Errorf("floorplan %q: block %q has non-positive size", f.Name, b.Name)
		}
		if b.CoolingBoost < 0 {
			return fmt.Errorf("floorplan %q: block %q has negative cooling boost", f.Name, b.Name)
		}
		if b.X < -geomEps || b.Y < -geomEps ||
			b.X+b.W > f.ChipW+geomEps || b.Y+b.H > f.ChipH+geomEps {
			return fmt.Errorf("floorplan %q: block %q exceeds chip bounds", f.Name, b.Name)
		}
	}
	if err := f.checkCoreIDs(); err != nil {
		return err
	}
	for i := range f.Blocks {
		for j := i + 1; j < len(f.Blocks); j++ {
			if overlaps(f.Blocks[i], f.Blocks[j]) {
				return fmt.Errorf("floorplan %q: blocks %q and %q overlap",
					f.Name, f.Blocks[i].Name, f.Blocks[j].Name)
			}
		}
	}
	return nil
}

func overlaps(a, b Block) bool {
	return a.X+a.W > b.X+geomEps && b.X+b.W > a.X+geomEps &&
		a.Y+a.H > b.Y+geomEps && b.Y+b.H > a.Y+geomEps
}

// Coverage returns the fraction of the chip area covered by blocks.
// A well-formed layout for the thermal model should cover ~100%.
func (f *Floorplan) Coverage() float64 {
	var sum float64
	for _, b := range f.Blocks {
		sum += b.Area()
	}
	return sum / f.ChipArea()
}
