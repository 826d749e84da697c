package main

import (
	"fmt"
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

// table8Cells lists the Table 8 cells the way experiments builds the
// study: every taxonomy policy (plus the baseline) over the mixes, on
// the paper's chip at the options' simulated time.
func table8Cells(opt experiments.Options) []simCell {
	cfg := sim.DefaultConfig()
	cfg.SimTime = opt.SimTime
	specs := core.Taxonomy()
	haveBase := false
	for _, s := range specs {
		haveBase = haveBase || s == core.Baseline
	}
	if !haveBase {
		specs = append([]core.PolicySpec{core.Baseline}, specs...)
	}
	var cells []simCell
	for _, spec := range specs {
		for _, mix := range opt.Workloads {
			cells = append(cells, simCell{cfg: cfg, spec: spec, mix: mix, label: mix.Name})
		}
	}
	return cells
}

// manycoreCells builds the three many-core policy cells the way
// experiments.RunManycore does: fitted package, per-class frequency
// caps, 3:2 oversubscribed process pool tiled from the benchmarks.
func manycoreCells() ([]simCell, error) {
	fp, err := floorplan.Grid(manycoreGrid)
	if err != nil {
		return nil, err
	}
	cfg := sim.DefaultConfig()
	cfg.SimTime = manycoreSimTime
	cfg.Floorplan = fp
	cfg.Thermal = thermal.FitParams(fp)
	for _, s := range floorplan.GridCoreScales(manycoreGrid) {
		cfg.CoreMaxScale = append(cfg.CoreMaxScale, units.ScaleFactor(s))
	}
	pool := workload.Benchmarks()
	nCores := fp.NumCores()
	benchmarks := make([]string, nCores+nCores/2)
	for i := range benchmarks {
		benchmarks[i] = pool[i%len(pool)]
	}
	specs := []core.PolicySpec{
		core.Baseline,
		{Mechanism: core.DVFS, Scope: core.Distributed},
		{Mechanism: core.DVFS, Scope: core.Distributed, Migration: core.SensorMigration},
	}
	cells := make([]simCell, len(specs))
	for i, spec := range specs {
		cells[i] = simCell{cfg: cfg, spec: spec, benchmarks: benchmarks, label: fp.Name}
	}
	return cells, nil
}

// tracedSim is the traced run shared by the sim workloads: one checked
// untraced study for the parallel-efficiency denominator, then
// record-and-replay passes over every cell in batches of the given
// width while another pass fits the measurement window.
func tracedSim(o options, rep *report, setup setupResult, op simOp, cells []simCell, width, workers int,
	line func(*metrics.Run) string) error {
	reportSetup(rep, setup)
	first, _, err := op()
	if err != nil {
		return err
	}
	t := time.Now()
	again, _, err := op()
	untraced := time.Since(t)
	if err != nil {
		return err
	}
	checkRepeat(rep, first, again)
	want := map[string]bool{}
	for _, c := range first {
		want[c] = true
	}

	var lt layerTimes
	passes := 0
	start := time.Now()
	var pass time.Duration
	for passes == 0 || fits(start, pass, o.measure) {
		t := time.Now()
		for lo := 0; lo < len(cells); lo += width {
			batch := cells[lo:min(lo+width, len(cells))]
			recs, runs, err := recordBatch(batch, &lt, rep)
			if err != nil {
				return err
			}
			for _, m := range runs {
				var err error
				if l := line(m); !want[l] {
					err = fmt.Errorf("traced cell differs from the untraced study: %s", l)
				}
				rep.check(err)
			}
			if err := replayBatch(batch, recs, setup.traces, &lt); err != nil {
				return err
			}
		}
		pass = time.Since(t)
		passes++
	}
	reportLayers(rep, &lt)
	perPass := lt.tickBusy.Seconds() / float64(passes)
	rep.set("experiments.parallel_efficiency", perPass/(float64(workers)*untraced.Seconds()))
	rep.note("traced passes %d over %d cells; untraced study %.3f s on %d workers", passes, len(cells), untraced.Seconds(), workers)
	return nil
}

func traceTable8(o options, rep *report) error {
	setup, err := coldSetup(table8Setup())
	if err != nil {
		return err
	}
	opt := table8Options(o)
	return tracedSim(o, rep, setup, table8Op(opt, rep), table8Cells(opt), sim.DefaultBatchSize(), o.nproc, cellLine)
}

func traceManycore(o options, rep *report) error {
	setup, err := coldSetup(manycoreSetup())
	if err != nil {
		return err
	}
	cells, err := manycoreCells()
	if err != nil {
		return err
	}
	nodes, mode, err := manycoreShape(cells[0].cfg)
	if err != nil {
		return err
	}
	line := func(m *metrics.Run) string {
		return manycoreLine(cells[0].label, m.Policy, nodes, mode, float64(m.BIPS()), float64(m.DutyCycle()),
			m.Migrations, m.Preemptions, float64(m.MaxTempC))
	}
	return tracedSim(o, rep, setup, manycoreOp(rep), cells, 1, 1, line)
}

// manycoreShape returns the thermal node count and discretization mode
// the many-core study reports.
func manycoreShape(cfg sim.Config) (int, string, error) {
	tmpl, err := thermal.TemplateFor(cfg.Floorplan, cfg.Thermal)
	if err != nil {
		return 0, "", err
	}
	d, err := tmpl.Discretization(cfg.Policy.SamplePeriod)
	if err != nil {
		return 0, "", err
	}
	return tmpl.NumNodes(), d.Mode(), nil
}

// manycoreLine renders one many-core cell's statistics with all their
// digits.
func manycoreLine(name, policy string, nodes int, mode string, bips, duty float64, migrations, preemptions int, worst float64) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return strings.Join([]string{name, policy, strconv.Itoa(nodes), mode, f(bips), f(duty),
		strconv.Itoa(migrations), strconv.Itoa(preemptions), f(worst)}, "|")
}
