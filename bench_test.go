package multitherm

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (run `go test -bench . -benchmem`), plus ablation
// benches for the design choices DESIGN.md calls out. Benchmarks use
// shortened simulations so a full -bench pass stays tractable; the
// cmd/sweep binary runs the same experiments at full 0.5 s fidelity.

import (
	"testing"

	"multitherm/internal/control"
	"multitherm/internal/core"
	"multitherm/internal/experiments"
	"multitherm/internal/floorplan"
	"multitherm/internal/sensor"
	"multitherm/internal/sim"
	"multitherm/internal/thermal"
	"multitherm/internal/units"
	"multitherm/internal/workload"
)

// benchOptions are the reduced-fidelity options used by table/figure
// regeneration benches.
func benchOptions() experiments.Options {
	o := experiments.QuickOptions()
	o.SimTime = 0.05
	for _, n := range []string{"workload1", "workload7", "workload12"} {
		m, err := workload.MixByName(n)
		if err != nil {
			panic(err)
		}
		o.Workloads = append(o.Workloads, m)
	}
	return o
}

func benchArtifact(b *testing.B, name string) {
	b.Helper()
	r, err := experiments.Find(name)
	if err != nil {
		b.Fatal(err)
	}
	opt := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Run(opt)
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Render()
	}
}

// --- one bench per paper table and figure ---

func BenchmarkTable1(b *testing.B)      { benchArtifact(b, "table1") }
func BenchmarkTable2(b *testing.B)      { benchArtifact(b, "table2") }
func BenchmarkTable3(b *testing.B)      { benchArtifact(b, "table3") }
func BenchmarkTable4(b *testing.B)      { benchArtifact(b, "table4") }
func BenchmarkPIAnalysis(b *testing.B)  { benchArtifact(b, "pi") }
func BenchmarkFig3(b *testing.B)        { benchArtifact(b, "fig3") }
func BenchmarkTable5(b *testing.B)      { benchArtifact(b, "table5") }
func BenchmarkFig5(b *testing.B)        { benchArtifact(b, "fig5") }
func BenchmarkTable6(b *testing.B)      { benchArtifact(b, "table6") }
func BenchmarkTable7(b *testing.B)      { benchArtifact(b, "table7") }
func BenchmarkFig7(b *testing.B)        { benchArtifact(b, "fig7") }
func BenchmarkTable8(b *testing.B)      { benchArtifact(b, "table8") }
func BenchmarkSensitivity(b *testing.B) { benchArtifact(b, "sensitivity") }
func BenchmarkDutyValidity(b *testing.B) {
	benchArtifact(b, "dutyvalid")
}

// --- core kernel benches ---

// BenchmarkThermalStepExpm measures one 28 µs transient step of the
// 55-node CMP4 RC network — the inner kernel of every simulation —
// through the exact ZOH discretization (T ← Φ·T + Ψ·u, no truncation
// error): one fused pass over the dense packed propagator. Power is
// held constant here, so the memoized input term Ψ·P + ψ_amb is reused
// across ticks just as in a fixed-power thermal study.
func BenchmarkThermalStepExpm(b *testing.B) {
	m, err := thermal.New(floorplan.CMP4(), thermal.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	p := make(units.PowerVec, m.NumBlocks())
	for i := range p {
		p[i] = 1.5
	}
	m.SetPower(p)
	if err := m.UseExact(control.PaperSamplePeriod); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(control.PaperSamplePeriod)
	}
}

// BenchmarkThermalStepExpmDirty is the same exact step with SetPower
// invalidating the memoized input term every tick — the simulator's
// calling pattern under leakage-temperature feedback (both the Φ pass
// and the Ψ pass run each iteration).
func BenchmarkThermalStepExpmDirty(b *testing.B) {
	m, err := thermal.New(floorplan.CMP4(), thermal.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	p := make(units.PowerVec, m.NumBlocks())
	for i := range p {
		p[i] = 1.5
	}
	if err := m.UseExact(control.PaperSamplePeriod); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SetPower(p)
		m.Step(control.PaperSamplePeriod)
	}
}

// benchThermalStepBatch measures one lockstep batched tick over k
// lanes in the simulator's calling pattern (every lane's power set
// each tick, so the fused Ψ panel pass and the Φ panel pass both run).
// ns/op is the whole batched tick; the ns/lane metric divides by k for
// direct comparison against BenchmarkThermalStepExpmDirty, which is
// the same work at k=1 through the unbatched path.
func benchThermalStepBatch(b *testing.B, k int) {
	models := make([]*thermal.Model, k)
	powers := make([]units.PowerVec, k)
	for l := range models {
		m, err := thermal.New(floorplan.CMP4(), thermal.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		p := make(units.PowerVec, m.NumBlocks())
		for i := range p {
			p[i] = 1.5 + 0.1*float64(l)
		}
		models[l] = m
		powers[l] = p
	}
	batch, err := thermal.NewBatch(models, control.PaperSamplePeriod)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l, m := range models {
			m.SetPower(powers[l])
		}
		batch.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/lane")
}

func BenchmarkThermalStepBatch1(b *testing.B)  { benchThermalStepBatch(b, 1) }
func BenchmarkThermalStepBatch8(b *testing.B)  { benchThermalStepBatch(b, 8) }
func BenchmarkThermalStepBatch32(b *testing.B) { benchThermalStepBatch(b, 32) }

// benchGridStep measures one exact tick on a generated Rows x Cols
// grid in the simulator's dirty-power calling pattern (SetPower every
// tick). The 2x2 grid (26 nodes) runs the dense packed path; 4x4, 8x8,
// and 16x16 (74/266/1034 nodes) run the sparse Krylov path. bench.sh
// fits ln(ns) against ln(cores) across the four sizes into
// step_cost_exponent — the scaling claim that per-step cost tracks
// nonzeros, not N².
func benchGridStep(b *testing.B, rows, cols int) {
	fp, err := floorplan.Grid(floorplan.GridSpec{
		Rows: rows, Cols: cols,
		Pattern: floorplan.PatternMixedRows,
		Cooling: floorplan.CoolingEdgeBoost,
	})
	if err != nil {
		b.Fatal(err)
	}
	m, err := thermal.New(fp, thermal.FitParams(fp))
	if err != nil {
		b.Fatal(err)
	}
	p := make(units.PowerVec, m.NumBlocks())
	for i := range p {
		p[i] = 1.0 + 0.1*float64(i%5)
	}
	if err := m.UseExact(control.PaperSamplePeriod); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SetPower(p)
		m.Step(control.PaperSamplePeriod)
	}
}

func BenchmarkGridStepN4(b *testing.B)   { benchGridStep(b, 2, 2) }
func BenchmarkGridStepN16(b *testing.B)  { benchGridStep(b, 4, 4) }
func BenchmarkGridStepN64(b *testing.B)  { benchGridStep(b, 8, 8) }
func BenchmarkGridStepN256(b *testing.B) { benchGridStep(b, 16, 16) }

// benchGridTick measures one whole control tick of a timeshared run on
// a generated Rows x Cols grid, set up as the many-core experiment sets
// it up (fitted thermal params, per-class frequency caps, 3:2 process
// oversubscription) under distributed DVFS with sensor migration:
// throttling, rotation, migration, activity fill, power and the
// thermal step. Set-up runs untimed and a warm-up run fills the trace,
// template and warmup caches first, so ns/op is the tick alone.
// bench.sh fits ln(ns) against ln(cores) into tick_cost_exponent, next
// to the thermal step's step_cost_exponent: with every per-core loop
// indexed, the tick outside the thermal solve is O(cores).
func benchGridTick(b *testing.B, rows, cols int) {
	b.StopTimer()
	spec := floorplan.GridSpec{
		Rows: rows, Cols: cols,
		Pattern: floorplan.PatternMixedRows,
		Cooling: floorplan.CoolingEdgeBoost,
	}
	fp, err := floorplan.Grid(spec)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Floorplan = fp
	cfg.Thermal = thermal.FitParams(fp)
	for _, s := range floorplan.GridCoreScales(spec) {
		cfg.CoreMaxScale = append(cfg.CoreMaxScale, units.ScaleFactor(s))
	}
	pool := workload.Benchmarks()
	procs := make([]string, rows*cols*3/2)
	for i := range procs {
		procs[i] = pool[i%len(pool)]
	}
	policy := core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed, Migration: core.SensorMigration}
	runner := func(ticks int) *sim.Runner {
		c := cfg
		c.SimTime = units.Seconds(ticks) * c.Policy.SamplePeriod
		r, err := sim.NewTimeshared(c, fp.Name, procs, policy, 0)
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	if _, err := runner(1).Run(); err != nil {
		b.Fatal(err)
	}
	r := runner(b.N)
	b.StartTimer()
	if _, err := r.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkGridTickN4(b *testing.B)   { benchGridTick(b, 2, 2) }
func BenchmarkGridTickN16(b *testing.B)  { benchGridTick(b, 4, 4) }
func BenchmarkGridTickN64(b *testing.B)  { benchGridTick(b, 8, 8) }
func BenchmarkGridTickN256(b *testing.B) { benchGridTick(b, 16, 16) }

// benchSweepWorkers runs a fixed specs×workloads study through the
// work-stealing scheduler at the given worker count; compare ns/op
// across BenchmarkSweepWorkers{1,2,4,8} to see the scaling curve of
// the sweep engine on this machine in one `go test -bench
// SweepWorkers` invocation. Scaling past GOMAXPROCS is flat by
// construction — the goroutines multiplex onto the same Ps — so on a
// pinned or single-core machine only the workers1 vs workers2 pair
// shows contention overhead, not speedup.
func benchSweepWorkers(b *testing.B, workers int) {
	opt := benchOptions()
	opt.Parallelism = workers
	r, err := experiments.Find("table8")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Run(opt)
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Render()
	}
}

func BenchmarkSweepWorkers1(b *testing.B) { benchSweepWorkers(b, 1) }
func BenchmarkSweepWorkers2(b *testing.B) { benchSweepWorkers(b, 2) }
func BenchmarkSweepWorkers4(b *testing.B) { benchSweepWorkers(b, 4) }
func BenchmarkSweepWorkers8(b *testing.B) { benchSweepWorkers(b, 8) }

// BenchmarkSweepBatched runs the same fixed study at several lockstep
// batch widths with one worker, so the sub-bench ratios isolate what
// batching alone buys the sweep engine (BenchmarkSweepParallel covers
// the worker axis).
func BenchmarkSweepBatched(b *testing.B) {
	for _, width := range []int{1, 8} {
		b.Run("batch"+itoa(int64(width)), func(b *testing.B) {
			opt := benchOptions()
			opt.Parallelism = 1
			opt.Batch = width
			r, err := experiments.Find("table8")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := r.Run(opt)
				if err != nil {
					b.Fatal(err)
				}
				_ = res.Render()
			}
		})
	}
}

// BenchmarkThermalSteadyState measures the LU-based equilibrium solve.
func BenchmarkThermalSteadyState(b *testing.B) {
	m, err := thermal.New(floorplan.CMP4(), thermal.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	p := make(units.PowerVec, m.NumBlocks())
	p[3] = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SteadyState(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPIStep measures the discrete PI controller's per-sample cost.
func BenchmarkPIStep(b *testing.B) {
	rt := control.NewPaperPIRuntime(81.8)
	for i := 0; i < b.N; i++ {
		rt.Step(units.Celsius(80 + float64(i%7)))
	}
}

// BenchmarkSimulatorTick measures full end-to-end simulation throughput
// (ticks/second of the whole Figure 2 loop) via a fixed 10 ms run.
func BenchmarkSimulatorTick(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.SimTime = 0.01
	mix, err := workload.MixByName("workload7")
	if err != nil {
		b.Fatal(err)
	}
	spec := core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed, Migration: core.SensorMigration}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sim.New(cfg, mix, spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches (design choices called out in DESIGN.md) ---

// ablationRun runs workload7 for 50 ms under a modified configuration
// and reports achieved BIPS as a custom metric.
func ablationRun(b *testing.B, mutate func(*sim.Config), spec core.PolicySpec) {
	b.Helper()
	cfg := sim.DefaultConfig()
	cfg.SimTime = 0.05
	if mutate != nil {
		mutate(&cfg)
	}
	mix, err := workload.MixByName("workload7")
	if err != nil {
		b.Fatal(err)
	}
	var bips float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sim.New(cfg, mix, spec)
		if err != nil {
			b.Fatal(err)
		}
		m, err := r.Run()
		if err != nil {
			b.Fatal(err)
		}
		bips = float64(m.BIPS())
	}
	b.ReportMetric(bips, "BIPS")
}

// BenchmarkAblationControllerPI vs. a crude bang-bang alternative: the
// stop-go rows of the taxonomy ARE the bang-bang ablation; these two
// benches make the comparison directly visible as custom metrics.
func BenchmarkAblationControllerPI(b *testing.B) {
	ablationRun(b, nil, core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed})
}

func BenchmarkAblationControllerBangBang(b *testing.B) {
	ablationRun(b, nil, core.PolicySpec{Mechanism: core.StopGo, Scope: core.Distributed})
}

// BenchmarkAblationMigrationEpoch sweeps the OS migration epoch.
func BenchmarkAblationMigrationEpoch(b *testing.B) {
	for _, epoch := range []units.Seconds{2e-3, 10e-3, 50e-3} {
		b.Run(formatMS(float64(epoch)), func(b *testing.B) {
			ablationRun(b, func(c *sim.Config) { c.MigrationEpoch = epoch },
				core.PolicySpec{Mechanism: core.StopGo, Scope: core.Distributed, Migration: core.CounterMigration})
		})
	}
}

// BenchmarkAblationMigrationPenalty sweeps the context-switch cost.
func BenchmarkAblationMigrationPenalty(b *testing.B) {
	for _, pen := range []units.Seconds{10e-6, 100e-6, 1e-3} {
		b.Run(formatUS(float64(pen)), func(b *testing.B) {
			ablationRun(b, func(c *sim.Config) { c.MigrationPenalty = pen },
				core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed, Migration: core.SensorMigration})
		})
	}
}

// BenchmarkAblationVoltageFloor compares the paper's pure-cubic DVFS
// power model against a realistic regulator floor.
func BenchmarkAblationVoltageFloor(b *testing.B) {
	for _, floor := range []float64{0, 0.7} {
		name := "cubic"
		if floor > 0 {
			name = "vfloor0.7"
		}
		b.Run(name, func(b *testing.B) {
			ablationRun(b, func(c *sim.Config) { c.Power.VFloor = floor },
				core.PolicySpec{Mechanism: core.DVFS, Scope: core.Distributed})
		})
	}
}

// BenchmarkAblationSensorNoise degrades the sensors that feed
// sensor-based migration.
func BenchmarkAblationSensorNoise(b *testing.B) {
	// Sensor parameters live on the bank built inside the runner;
	// emulate degradation through quantization-equivalent threshold
	// margin instead.
	for _, margin := range []units.Celsius{0.3, 1.0, 2.0} {
		b.Run(formatC(float64(margin)), func(b *testing.B) {
			ablationRun(b, func(c *sim.Config) { c.Policy.TripMarginC = margin },
				core.PolicySpec{Mechanism: core.StopGo, Scope: core.Distributed, Migration: core.SensorMigration})
		})
	}
}

// BenchmarkAblationDiscretization compares c2d methods on control cost.
func BenchmarkAblationDiscretization(b *testing.B) {
	for _, method := range []control.DiscretizeMethod{control.ForwardEuler, control.BackwardEuler, control.Tustin} {
		b.Run(method.String(), func(b *testing.B) {
			law := control.C2DPI(control.PaperKp, control.PaperKi, control.PaperSamplePeriod, method)
			rt := control.NewPIRuntime(law, control.DefaultPILimits(), 81.8)
			temp := 60.0
			var worst float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := float64(rt.Step(units.Celsius(temp)))
				eq := 45 + 52*u*u*u
				temp += (eq - temp) * float64(control.PaperSamplePeriod) / 25e-3
				if temp > worst {
					worst = temp
				}
			}
			b.ReportMetric(worst, "peakC")
		})
	}
}

// BenchmarkAblationThermalStepSize measures the exact step's cost at
// several step sizes. The discretization is built once per size before
// the timer starts; each tick then costs the same one propagator pass
// whatever dt is.
func BenchmarkAblationThermalStepSize(b *testing.B) {
	for _, dt := range []units.Seconds{7e-6, 28e-6, 112e-6} {
		b.Run(formatUS(float64(dt)), func(b *testing.B) {
			m, err := thermal.New(floorplan.CMP4(), thermal.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			p := make(units.PowerVec, m.NumBlocks())
			for i := range p {
				p[i] = 1.5
			}
			m.SetPower(p)
			if err := m.UseExact(dt); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Step(dt)
			}
		})
	}
}

// BenchmarkSensorRead measures the hottest-of-bank reduction feeding
// every controller decision.
func BenchmarkSensorRead(b *testing.B) {
	fp := floorplan.CMP4()
	bank, err := sensor.CoreHotspots(fp)
	if err != nil {
		b.Fatal(err)
	}
	temps := make(units.TempVec, len(fp.Blocks))
	for i := range temps {
		temps[i] = 70 + float64(i%9)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.Hottest(temps, int64(i))
	}
}

func formatMS(v float64) string { return formatF(v*1e3) + "ms" }
func formatUS(v float64) string { return formatF(v*1e6) + "us" }
func formatC(v float64) string  { return formatF(v) + "C" }

func formatF(v float64) string {
	if v == float64(int64(v)) {
		return itoa(int64(v))
	}
	return itoa(int64(v*10)) + "e-1"
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [24]byte
	i := len(buf)
	neg := v < 0
	if neg {
		v = -v
	}
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
