package floorplan

import (
	"fmt"

	"multitherm/internal/memo"
)

// CoreIndex groups items — a floorplan's blocks, a sensor bank's
// sensors — by owning core, so every per-core loop of a control tick
// (activity fill, power assembly, hotspot reads) touches only that
// core's items instead of scanning the whole die once per core. It is a
// compressed-row layout: core c's item ids are ids[start[c]:start[c+1]],
// in item order, and the items no core owns are listed apart. An index
// is immutable once built.
type CoreIndex struct {
	start  []int32 // len NumCores()+1
	ids    []int32 // item ids grouped by core
	shared []int32 // ids of items no core owns, in item order
}

// GroupByCore indexes items 0..len(owner)-1 by owner[i], the owning core
// of item i; a negative owner (SharedCore) marks an item no core owns.
// The index covers cores 0..max(owner).
func GroupByCore(owner []int) *CoreIndex {
	n := 0
	for _, c := range owner {
		if c >= n {
			n = c + 1
		}
	}
	x := &CoreIndex{start: make([]int32, n+1)}
	for _, c := range owner {
		if c >= 0 {
			x.start[c+1]++
		}
	}
	for c := 0; c < n; c++ {
		x.start[c+1] += x.start[c]
	}
	x.ids = make([]int32, x.start[n])
	next := append([]int32(nil), x.start[:n]...)
	for i, c := range owner {
		if c < 0 {
			x.shared = append(x.shared, int32(i))
			continue
		}
		x.ids[next[c]] = int32(i)
		next[c]++
	}
	return x
}

// NumCores returns the number of cores the index covers.
func (x *CoreIndex) NumCores() int { return len(x.start) - 1 }

// Core returns the ids of the items owned by core, in item order; empty
// for a core outside the index. The slice is shared and must not be
// modified.
func (x *CoreIndex) Core(core int) []int32 {
	if core < 0 || core >= x.NumCores() {
		return nil
	}
	return x.ids[x.start[core]:x.start[core+1]]
}

// Shared returns the ids of the items no core owns, in item order. The
// slice is shared and must not be modified.
func (x *CoreIndex) Shared() []int32 { return x.shared }

var coreIndexes memo.Map[*Floorplan, *CoreIndex]

// Cores returns the floorplan's blocks grouped by owning core, building
// the index on first use. Floorplans are treated as immutable, so the
// index is memoized on pointer identity like the thermal templates:
// every runner and calculator on one floorplan shares one index. It
// fails if a block's core id is neither SharedCore nor in
// [0, NumCores()).
func (f *Floorplan) Cores() (*CoreIndex, error) {
	return coreIndexes.LoadOrStore(f, func() (*CoreIndex, error) {
		if err := f.checkCoreIDs(); err != nil {
			return nil, err
		}
		owner := make([]int, len(f.Blocks))
		for i, b := range f.Blocks {
			owner[i] = b.Core
		}
		return GroupByCore(owner), nil
	})
}

// checkCoreIDs checks that every block's core id is SharedCore or in
// [0, NumCores()). Per-core tables are indexed by core id, so a gap
// ({0, 2}) or a stray negative id would otherwise leave some core's
// blocks outside every table.
func (f *Floorplan) checkCoreIDs() error {
	n := f.NumCores()
	for _, b := range f.Blocks {
		if b.Core != SharedCore && (b.Core < 0 || b.Core >= n) {
			return fmt.Errorf("floorplan %q: block %q has core id %d outside [0, %d)",
				f.Name, b.Name, b.Core, n)
		}
	}
	return nil
}
