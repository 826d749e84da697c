package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"multitherm/internal/core"
	"multitherm/internal/experiments"
	"multitherm/internal/floorplan"
	"multitherm/internal/metrics"
	"multitherm/internal/sim"
	"multitherm/internal/thermal"
	"multitherm/internal/units"
	"multitherm/internal/workload"
)

// manycoreSimTime is the simulated time per manycore_n256 cell: long
// enough for a timeslice rotation and sensor-migration decisions, short
// enough that several full runs fit in one measurement.
const manycoreSimTime = 0.03

// manycoreGrid is the 256-core generated chip of the many-core study.
var manycoreGrid = floorplan.GridSpec{
	Rows: 16, Cols: 16,
	Pattern: floorplan.PatternMixedRows,
	Cooling: floorplan.CoolingEdgeBoost,
}

// table8Options returns the Table 8 sweep settings: quick fidelity,
// one worker per CPU, the default lockstep batch width, and the twelve
// mixes in a seed-chosen order (results are slotted by cell, so the
// order changes scheduling, never the statistics).
func table8Options(o options) experiments.Options {
	opt := experiments.QuickOptions()
	opt.Parallelism = o.nproc
	mixes := append([]workload.Mix(nil), workload.Mixes...)
	rng := rand.New(rand.NewSource(o.seed))
	rng.Shuffle(len(mixes), func(i, j int) { mixes[i], mixes[j] = mixes[j], mixes[i] })
	opt.Workloads = mixes
	return opt
}

func manycoreOptions() experiments.Options {
	return experiments.Options{SimTime: manycoreSimTime, Parallelism: 1, Grid: manycoreGrid}
}

// ticksPerCell is the control-tick count of one cell, as the simulator
// rounds it.
func ticksPerCell(simTime units.Seconds) int64 {
	dt := core.DefaultParams().SamplePeriod
	return int64(simTime/dt + 0.5)
}

func table8Setup() setupSpec {
	cfg := sim.DefaultConfig()
	return setupSpec{
		floorplan:  func() (*floorplan.Floorplan, error) { return floorplan.CMP4(), nil },
		params:     func(*floorplan.Floorplan) thermal.Params { return thermal.DefaultParams() },
		dt:         cfg.Policy.SamplePeriod,
		uarch:      cfg.Uarch,
		intervals:  cfg.TraceIntervals,
		benchmarks: workload.Benchmarks(),
	}
}

func manycoreSetup() setupSpec {
	cfg := sim.DefaultConfig()
	return setupSpec{
		floorplan:  func() (*floorplan.Floorplan, error) { return floorplan.Grid(manycoreGrid) },
		params:     thermal.FitParams,
		dt:         cfg.Policy.SamplePeriod,
		uarch:      cfg.Uarch,
		intervals:  cfg.TraceIntervals,
		benchmarks: workload.Benchmarks(),
	}
}

// simOp is one timed operation of a sim workload: it runs, checks and
// summarizes one full study.
type simOp func() (cells []string, coreTicks int64, err error)

// opSample is the measurement of one operation.
type opSample struct {
	wall  time.Duration
	alloc uint64
}

// timeOps runs op once untimed (filling the program's memoized set-up)
// and then repeatedly while another run fits the measurement window. Every run's cells
// are checked against the first run's: a repeated cell must give
// identical statistics.
func timeOps(o options, rep *report, op simOp) ([]opSample, []string, int64, error) {
	first, coreTicks, err := op()
	if err != nil {
		return nil, nil, 0, err
	}
	var samples []opSample
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	for len(samples) == 0 || fits(start, samples[len(samples)-1].wall, o.measure) {
		runtime.ReadMemStats(&ms0)
		t := time.Now()
		cells, _, err := op()
		wall := time.Since(t)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, nil, 0, err
		}
		samples = append(samples, opSample{wall: wall, alloc: ms1.TotalAlloc - ms0.TotalAlloc})
		checkRepeat(rep, first, cells)
	}
	return samples, first, coreTicks, nil
}

// fits reports whether another operation as long as the last one
// still ends inside the measurement window that opened at start.
func fits(start time.Time, last, window time.Duration) bool {
	return time.Since(start)+last <= window
}

// checkRepeat counts one check per cell: identical statistics to the
// same cell's first run.
func checkRepeat(rep *report, first, cells []string) {
	if len(cells) != len(first) {
		rep.check(fmt.Errorf("repeat produced %d cells, first run %d", len(cells), len(first)))
		return
	}
	for i := range cells {
		if cells[i] != first[i] {
			rep.check(fmt.Errorf("repeated cell differs: %q vs %q", cells[i], first[i]))
			continue
		}
		rep.check(nil)
	}
}

// reportSimOps fills the end-to-end metrics of a sim workload.
func reportSimOps(rep *report, samples []opSample, nCells int, coreTicks int64) {
	walls := make([]float64, len(samples))
	allocs := make([]float64, len(samples))
	worst := 0.0
	for i, s := range samples {
		walls[i] = s.wall.Seconds()
		allocs[i] = float64(s.alloc) / 1e6
		worst = math.Max(worst, walls[i])
	}
	wall := median(walls)
	rep.set("core_ticks_per_s", float64(coreTicks)/wall)
	rep.set("alloc_mb", median(allocs))
	rep.set("lat_p50_ms", wall*1e3)
	rep.set("lat_p99_ms", worst*1e3)
	rep.set("capacity_rps", float64(nCells)/wall)
	rep.note("ops %d timed, %d cells and %d core-ticks each", len(samples), nCells, coreTicks)
}

// cellLine renders every statistic of one finished cell with all its
// digits, so two lines are equal exactly when the statistics are.
func cellLine(m *metrics.Run) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	per := make([]string, len(m.PerCoreInstr))
	for i, v := range m.PerCoreInstr {
		per[i] = f(v)
	}
	return strings.Join([]string{
		m.Policy, m.Workload, f(float64(m.SimTime)), strconv.Itoa(m.NCores),
		f(m.Instructions), strings.Join(per, ","),
		f(float64(m.WorkSeconds)), f(float64(m.PenaltySeconds)), f(float64(m.StallSeconds)),
		f(float64(m.MaxTempC)), f(float64(m.EmergencySeconds)),
		strconv.Itoa(m.Migrations), strconv.Itoa(m.Preemptions), strconv.Itoa(m.Transitions),
	}, "|")
}

// digest hashes a set of cell lines independent of their order.
func digest(cells []string) string {
	s := append([]string(nil), cells...)
	sort.Strings(s)
	h := sha256.New()
	for _, c := range s {
		h.Write([]byte(c))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// table8Op runs the Table 8 study once and checks it: every cell
// passes metrics.Validate, and the Table 5/8 ordering holds with no
// thermal emergencies.
func table8Op(opt experiments.Options, rep *report) simOp {
	return func() ([]string, int64, error) {
		res, err := experiments.RunTable8(opt)
		if err != nil {
			return nil, 0, err
		}
		var cells []string
		var coreTicks int64
		for _, spec := range res.Specs {
			for _, m := range res.Runs[spec] {
				cells = append(cells, cellLine(m))
				coreTicks += ticksPerCell(m.SimTime) * int64(m.NCores)
				rep.check(m.Validate())
			}
		}
		rep.check(table8Ordering(res))
		return cells, coreTicks, nil
	}
}

// table8Ordering checks the paper's Table 5/8 result: global stop-go <
// distributed stop-go (the baseline) < global DVFS < distributed DVFS,
// with no time above the thermal threshold.
func table8Ordering(res *experiments.Table8Result) error {
	gsg := res.Relative(core.PolicySpec{Mechanism: core.StopGo, Scope: core.Global})
	gdv := res.Relative(core.PolicySpec{Mechanism: core.DVFS, Scope: core.Global})
	ddv := res.Relative(core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed})
	if !(gsg < 1 && 1 < gdv && gdv < ddv) {
		return fmt.Errorf("table8 ordering broken: global stop-go %.3f, baseline 1, global DVFS %.3f, dist DVFS %.3f", gsg, gdv, ddv)
	}
	if e := res.Emergencies(); e > 0 {
		return fmt.Errorf("table8 spent %g s above the thermal threshold", e)
	}
	return nil
}

// manycoreOp runs the many-core study once and checks each policy
// cell's statistics, and that distributed DVFS out-runs stop-go.
func manycoreOp(rep *report) simOp {
	opt := manycoreOptions()
	return func() ([]string, int64, error) {
		res, err := experiments.RunManycore(opt)
		if err != nil {
			return nil, 0, err
		}
		cores := int64(res.Spec.Rows * res.Spec.Cols)
		var cells []string
		var coreTicks int64
		for i, spec := range res.Specs {
			cells = append(cells, manycoreLine(res.Name, spec.String(), res.Nodes, res.Mode,
				float64(res.BIPS[i]), float64(res.Duty[i]), res.Migrations[i], res.Preemptions[i], float64(res.Worst[i])))
			coreTicks += ticksPerCell(manycoreSimTime) * cores
			rep.check(manycoreCellErr(res, i))
		}
		rep.check(manycoreOrdering(res))
		return cells, coreTicks, nil
	}
}

func manycoreCellErr(res *experiments.ManycoreResult, i int) error {
	if !(res.BIPS[i] > 0) || !(res.Duty[i] > 0 && res.Duty[i] <= 1) || math.IsInf(float64(res.Worst[i]), 0) {
		return fmt.Errorf("manycore %s: BIPS %g duty %g worst %g out of range", res.Specs[i], res.BIPS[i], res.Duty[i], res.Worst[i])
	}
	return nil
}

func manycoreOrdering(res *experiments.ManycoreResult) error {
	if len(res.BIPS) < 2 || !(res.BIPS[1] > res.BIPS[0]) {
		return fmt.Errorf("manycore: dist DVFS does not out-run dist stop-go (%v)", res.BIPS)
	}
	return nil
}

func runTable8(o options, rep *report) error {
	samples, cells, coreTicks, err := timeOps(o, rep, table8Op(table8Options(o), rep))
	if err != nil {
		return err
	}
	rep.note("digest table8 %s (%d cells, every simulated statistic)", digest(cells), len(cells))
	reportSimOps(rep, samples, len(cells), coreTicks)
	return nil
}

func runManycore(o options, rep *report) error {
	samples, cells, coreTicks, err := timeOps(o, rep, manycoreOp(rep))
	if err != nil {
		return err
	}
	rep.note("digest manycore_n256 %s (%d cells, every simulated statistic)", digest(cells), len(cells))
	reportSimOps(rep, samples, len(cells), coreTicks)
	return nil
}

// probeTable8 is the Table 8 study's set-up probe: the same sweep at a
// few ticks per cell.
func probeTable8(o options) (time.Duration, error) {
	opt := table8Options(o)
	opt.SimTime = probeSimTime
	return coldWarm(func(bool) error {
		_, err := experiments.RunTable8(opt)
		return err
	})
}

// probeManycore is the many-core study's set-up probe: the same study
// at a few ticks per cell.
func probeManycore(options) (time.Duration, error) {
	opt := manycoreOptions()
	opt.SimTime = probeSimTime
	return coldWarm(func(bool) error {
		_, err := experiments.RunManycore(opt)
		return err
	})
}
