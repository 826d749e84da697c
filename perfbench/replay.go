package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"multitherm/internal/core"
	"multitherm/internal/floorplan"
	"multitherm/internal/metrics"
	"multitherm/internal/migration"
	"multitherm/internal/osched"
	"multitherm/internal/power"
	"multitherm/internal/sensor"
	"multitherm/internal/sim"
	"multitherm/internal/thermal"
	"multitherm/internal/trace"
	"multitherm/internal/uarch"
	"multitherm/internal/units"
	"multitherm/internal/workload"
)

// The traced run measures the tick's layers from outside the program.
// A recording pass runs each cell through sim with a Probe that stores
// the inputs of every control tick — block temperatures, the commands
// Throttler.Decide returned, the core assignment — and times the tick
// as the gap between successive probe calls. A replay pass then
// rebuilds the same cell from public constructors and walks the
// recorded ticks through each layer's exported functions, one span per
// layer call: Throttler.Decide (which reads the sensors), migration
// Controller.Step, trace Cursor.Current/Advance, power
// Calculator.BlockPower, and thermal Model.SetPower/Step or
// BatchModel.Step. Everything the replay does outside those spans —
// activity fill, per-core accounting, scheduling — is what the tick
// spends in sim itself, so sim's self time is the tick minus the layer
// spans. The replayed commands must equal the recorded ones, or the
// spans would be timing different inputs.

// simCell is one policy × workload cell, built the way experiments
// builds it.
type simCell struct {
	cfg  sim.Config
	spec core.PolicySpec
	// mix names a four-process run on the 4-core chip; benchmarks,
	// when set, is the process list of a timeshared many-core run.
	mix        workload.Mix
	benchmarks []string
	label      string
}

func (c simCell) newRunner() (*sim.Runner, error) {
	if c.benchmarks != nil {
		return sim.NewTimeshared(c.cfg, c.label, c.benchmarks, c.spec, 0)
	}
	return sim.New(c.cfg, c.mix, c.spec)
}

func (c simCell) processes() []string {
	if c.benchmarks != nil {
		return c.benchmarks
	}
	return c.mix.Benchmarks[:]
}

// recording holds the per-tick inputs of one cell.
type recording struct {
	nb, nc int
	ticks  int64
	n      int64 // ticks stored
	now    []units.Seconds
	temps  []float64
	cmds   []core.CoreCommand
	assign []int
}

func newRecording(nb, nc int, ticks int64) *recording {
	return &recording{
		nb: nb, nc: nc, ticks: ticks,
		now:    make([]units.Seconds, ticks),
		temps:  make([]float64, ticks*int64(nb)),
		cmds:   make([]core.CoreCommand, ticks*int64(nc)),
		assign: make([]int, ticks*int64(nc)),
	}
}

func (r *recording) store(now units.Seconds, tick int64, temps units.TempVec, cmds []core.CoreCommand, assign []int) {
	if tick != r.n || tick >= r.ticks {
		panic(fmt.Sprintf("perfbench: probe tick %d, expected %d of %d", tick, r.n, r.ticks))
	}
	r.now[tick] = now
	copy(r.temps[tick*int64(r.nb):], temps)
	copy(r.cmds[tick*int64(r.nc):], cmds)
	copy(r.assign[tick*int64(r.nc):], assign)
	r.n++
}

// probeClock times the simulator between probe calls: the gap from one
// probe's return to the next probe's entry is simulator work, the
// probe's own copying is excluded. It reads the allocation counter at
// the first and last probe of a batch.
type probeClock struct {
	expect   int64 // probe calls the batch will make
	calls    int64
	last     time.Time
	busy     time.Duration
	alloc0   uint64
	allocEnd uint64
}

func (p *probeClock) enter() {
	if p.calls > 0 {
		p.busy += time.Since(p.last)
	}
	p.calls++
	if p.calls == 1 || p.calls == p.expect {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if p.calls == 1 {
			p.alloc0 = ms.TotalAlloc
		} else {
			p.allocEnd = ms.TotalAlloc
		}
	}
}

func (p *probeClock) exit() { p.last = time.Now() }

// layerTimes accumulates spans over every replayed lane-tick.
type layerTimes struct {
	laneTicks int64

	tickBusy  time.Duration // sim time between probes (recording pass)
	intervals int64         // probe gaps that busy covers
	allocated uint64        // bytes allocated over those gaps

	decide, sensor, migration, advance, power, thermal, batch span
	decisions                                                 int64
	sink                                                      float64 // keeps the sensor span's readings live
}

// span is a summed duration over a count of timed calls.
type span struct {
	d time.Duration
	n int64
}

func (s *span) add(t time.Time) {
	s.d += time.Since(t)
	s.n++
}

// net returns the span's time with the measured cost of the timing
// itself removed, per lane-tick.
func (s span) net(overhead float64, laneTicks int64) float64 {
	v := (float64(s.d) - float64(s.n)*overhead) / float64(laneTicks)
	return math.Max(v, 0)
}

// spanOverhead measures what one empty span costs, in ns.
func spanOverhead() float64 {
	const n = 200000
	var s span
	for i := 0; i < n; i++ {
		s.add(time.Now())
	}
	return float64(s.d) / n
}

// recordBatch runs the cells in lockstep (one lane runs sequentially)
// with a recording probe per lane, checks each cell's statistics, and
// returns the recordings.
func recordBatch(cells []simCell, lt *layerTimes, rep *report) ([]*recording, []*metrics.Run, error) {
	runners := make([]*sim.Runner, len(cells))
	recs := make([]*recording, len(cells))
	clock := &probeClock{}
	for i, c := range cells {
		r, err := c.newRunner()
		if err != nil {
			return nil, nil, err
		}
		ticks := ticksPerCell(c.cfg.SimTime)
		rec := newRecording(len(c.cfg.Floorplan.Blocks), c.cfg.Floorplan.NumCores(), ticks)
		clock.expect += ticks
		r.SetProbe(func(now units.Seconds, tick int64, temps units.TempVec, cmds []core.CoreCommand, assign []int) {
			clock.enter()
			rec.store(now, tick, temps, cmds, assign)
			clock.exit()
		})
		runners[i], recs[i] = r, rec
	}
	var runs []*metrics.Run
	if len(runners) == 1 {
		m, err := runners[0].Run()
		if err != nil {
			return nil, nil, err
		}
		runs = []*metrics.Run{m}
	} else {
		br, err := sim.NewBatchRunner(runners)
		if err != nil {
			return nil, nil, err
		}
		if runs, err = br.Run(); err != nil {
			return nil, nil, err
		}
	}
	if clock.calls != clock.expect {
		return nil, nil, fmt.Errorf("recorded %d probe calls, expected %d", clock.calls, clock.expect)
	}
	lt.tickBusy += clock.busy
	lt.intervals += clock.calls - 1
	lt.allocated += clock.allocEnd - clock.alloc0
	for i, m := range runs {
		rep.check(m.Validate())
		if recs[i].n != recs[i].ticks {
			return nil, nil, fmt.Errorf("cell %s/%s recorded %d of %d ticks", m.Policy, m.Workload, recs[i].n, recs[i].ticks)
		}
	}
	return recs, runs, nil
}

// lane is one cell's replay state, built from public constructors
// exactly as sim.New / sim.NewTimeshared and the tick loop build it.
type lane struct {
	cell   simCell
	rec    *recording
	fp     *floorplan.Floorplan
	model  *thermal.Model
	calc   *power.Calculator
	bank   *sensor.Bank
	sched  *osched.Scheduler
	throt  core.Throttler
	migCtl migration.Controller
	migCtx *migration.Context

	cursors    []*trace.Cursor
	prevScale  []units.ScaleFactor
	coreStates []power.CoreState
	eff        []float64
	retired    []float64
	samples    []*uarch.Sample
	activity   []float64
	powerVec   units.PowerVec
}

func newLane(c simCell, rec *recording, traces map[string]*trace.Trace) (*lane, error) {
	cfg := c.cfg
	fp := cfg.Floorplan
	nc := fp.NumCores()
	model, err := thermal.New(fp, cfg.Thermal)
	if err != nil {
		return nil, err
	}
	// The replay reads temperatures from the recording; the model's own
	// state only has to be plausible, since a step costs the same at
	// any temperature.
	model.SetUniform(units.Celsius(rec.temps[0]))
	calc, err := power.NewCalculator(fp, cfg.Power)
	if err != nil {
		return nil, err
	}
	bank, err := sensor.CoreHotspots(fp)
	if err != nil {
		return nil, err
	}
	l := &lane{
		cell: c, rec: rec, fp: fp, model: model, calc: calc, bank: bank,
		prevScale:  make([]units.ScaleFactor, nc),
		coreStates: make([]power.CoreState, nc),
		eff:        make([]float64, nc),
		retired:    make([]float64, nc),
		samples:    make([]*uarch.Sample, nc),
		activity:   make([]float64, len(fp.Blocks)),
		powerVec:   make(units.PowerVec, len(fp.Blocks)),
	}
	// BlockPower's cost does not depend on the activity values, so the
	// replay hands it a fixed vector instead of repeating sim's
	// activity fill.
	for i := range l.activity {
		l.activity[i] = 0.5
	}
	for i := range l.prevScale {
		l.prevScale[i] = 1
	}
	procs := c.processes()
	if c.benchmarks != nil {
		l.sched, err = osched.NewTimeshared(procs, nc, 0)
		if err != nil {
			return nil, err
		}
	} else {
		l.sched = osched.NewScheduler(procs)
	}
	for _, b := range procs {
		tr := traces[b]
		if tr == nil {
			return nil, fmt.Errorf("no recorded trace for benchmark %q", b)
		}
		l.cursors = append(l.cursors, trace.NewCursor(tr))
	}
	switch c.spec.Mechanism {
	case core.StopGo:
		l.throt, err = core.NewStopGo(cfg.Policy, c.spec.Scope, bank, nc)
	case core.DVFS:
		l.throt, err = core.NewDVFS(cfg.Policy, c.spec.Scope, bank, nc)
	default:
		err = fmt.Errorf("unknown mechanism %v", c.spec.Mechanism)
	}
	if err != nil {
		return nil, err
	}
	switch c.spec.Migration {
	case core.CounterMigration:
		l.migCtl = migration.NewCounterBased()
	case core.SensorMigration:
		l.migCtl = migration.NewSensorBased(l.sched.NumProcesses(), nc)
	}
	if l.migCtl != nil {
		dynScale := cfg.Power.DynamicScale
		if c.spec.Mechanism == core.StopGo {
			dynScale = func(s units.ScaleFactor) float64 { return float64(s) }
		}
		l.migCtx = &migration.Context{
			Sched: l.sched, Throttler: l.throt, FP: fp, Bank: bank, DynScale: dynScale,
		}
	}
	return l, nil
}

// tick replays the control half of one recorded tick (sim's pre) with
// a span around each layer call, leaving the power vector installed on
// the thermal model. Sequential lanes also take their thermal step.
func (l *lane) tick(t int64, batched bool, lt *layerTimes) error {
	cfg, rec := l.cell.cfg, l.rec
	dt := cfg.Policy.SamplePeriod
	nc := rec.nc
	now := rec.now[t]
	temps := units.TempVec(rec.temps[t*int64(rec.nb) : (t+1)*int64(rec.nb)])

	s := time.Now()
	cmds := l.throt.Decide(now, t, temps)
	lt.decide.add(s)
	want := rec.cmds[t*int64(nc) : (t+1)*int64(nc)]
	for c := range cmds {
		if math.Float64bits(float64(cmds[c].Scale)) != math.Float64bits(float64(want[c].Scale)) || cmds[c].Stall != want[c].Stall {
			return fmt.Errorf("replay fidelity: %s/%s tick %d core %d: Decide returned %+v, sim recorded %+v",
				l.cell.spec, l.cell.label, t, c, cmds[c], want[c])
		}
	}

	s = time.Now()
	for c := 0; c < nc; c++ {
		v, _ := l.bank.HottestForCore(c, temps, t)
		lt.sink += float64(v)
	}
	lt.sensor.add(s)

	if l.cell.benchmarks != nil && l.sched.NeedsRotation(float64(now)) {
		before := l.sched.Assignment()
		next := l.sched.RotationAssignment(float64(now))
		if _, err := l.sched.Apply(float64(now), next); err != nil {
			return err
		}
		l.sched.MarkRotation(float64(now))
		for c := range next {
			if before[c] != next[c] {
				l.throt.NotifyMigration(c)
			}
		}
	}

	if l.migCtl != nil {
		ctx := l.migCtx
		ctx.Now, ctx.Tick, ctx.BlockTemps = now, t, temps
		s = time.Now()
		assign, decided := l.migCtl.Step(ctx)
		lt.migration.add(s)
		if decided {
			lt.decisions++
			before := l.sched.Assignment()
			moved, err := l.sched.Apply(float64(now), assign)
			if err != nil {
				return err
			}
			if moved > 0 {
				for c := range assign {
					if before[c] != assign[c] {
						l.throt.NotifyMigration(c)
					}
				}
			}
		}
	}
	wantAssign := rec.assign[t*int64(nc) : (t+1)*int64(nc)]
	for c := 0; c < nc; c++ {
		if got := l.sched.ProcessOn(c).ID; got != wantAssign[c] {
			return fmt.Errorf("replay fidelity: %s/%s tick %d core %d runs process %d, sim recorded %d",
				l.cell.spec, l.cell.label, t, c, got, wantAssign[c])
		}
	}

	// Per-core operating point and available time, as the tick loop
	// computes them.
	caps := cfg.CoreMaxScale
	for c := 0; c < nc; c++ {
		cmd := cmds[c]
		if len(caps) == nc && cmd.Scale > caps[c] {
			cmd.Scale = caps[c]
		}
		avail := dt
		if l.sched.InPenalty(c, float64(now)) {
			avail = 0
		}
		if cmd.Stall {
			avail = 0
			l.coreStates[c] = power.CoreState{Scale: 1, Stalled: true}
		} else {
			if math.Float64bits(float64(cmd.Scale)) != math.Float64bits(float64(l.prevScale[c])) {
				avail -= cfg.Policy.TransitionPenalty
				if avail < 0 {
					avail = 0
				}
				l.prevScale[c] = cmd.Scale
			}
			l.coreStates[c] = power.CoreState{Scale: cmd.Scale}
		}
		l.eff[c] = 0
		if avail > 0 && !cmd.Stall {
			l.eff[c] = float64(cmd.Scale) * float64(avail/dt)
		}
	}

	s = time.Now()
	for c := 0; c < nc; c++ {
		cur := l.cursors[l.sched.ProcessOn(c).ID]
		l.samples[c] = cur.Current()
		l.retired[c] = 0
		if l.eff[c] > 0 {
			l.retired[c] = cur.Advance(l.eff[c])
		}
	}
	lt.advance.add(s)

	for c := 0; c < nc; c++ {
		sample := l.samples[c]
		if l.eff[c] > 0 {
			adj := l.eff[c] * float64(cfg.Uarch.SampleCycles)
			l.sched.ProcessOn(c).Account(float64(dt), osched.Counters{
				AdjCycles:    adj,
				Instructions: l.retired[c],
				IntRFAccess:  sample.ActivityFor(floorplan.KindIntRegFile) * adj,
				FPRFAccess:   sample.ActivityFor(floorplan.KindFPRegFile) * adj,
			})
		}
	}

	s = time.Now()
	l.calc.BlockPower(l.powerVec, l.activity, l.coreStates, temps)
	lt.power.add(s)

	s = time.Now()
	l.model.SetPower(l.powerVec)
	if !batched {
		l.model.Step(dt)
	}
	lt.thermal.add(s)
	lt.laneTicks++
	return nil
}

// replayBatch walks a recorded batch through the layers in lockstep:
// every lane's control half, then one thermal advance for all lanes
// (BatchModel.Step where the simulator would fuse them).
func replayBatch(cells []simCell, recs []*recording, traces map[string]*trace.Trace, lt *layerTimes) error {
	lanes := make([]*lane, len(cells))
	for i, c := range cells {
		l, err := newLane(c, recs[i], traces)
		if err != nil {
			return err
		}
		lanes[i] = l
	}
	dt := cells[0].cfg.Policy.SamplePeriod
	var batch *thermal.BatchModel
	if len(lanes) > 1 && lanes[0].model.PreferExact(dt) {
		models := make([]*thermal.Model, len(lanes))
		for i, l := range lanes {
			models[i] = l.model
		}
		var err error
		if batch, err = thermal.NewBatch(models, dt); err != nil {
			return err
		}
	} else if len(lanes) == 1 && lanes[0].model.PreferExact(dt) {
		if err := lanes[0].model.UseExact(dt); err != nil {
			return err
		}
	}
	ticks := recs[0].ticks
	for t := int64(0); t < ticks; t++ {
		for _, l := range lanes {
			if err := l.tick(t, batch != nil, lt); err != nil {
				return err
			}
		}
		if batch != nil {
			s := time.Now()
			batch.Step()
			lt.batch.add(s)
		} else if len(lanes) > 1 {
			s := time.Now()
			for _, l := range lanes {
				l.model.Step(dt)
			}
			lt.thermal.add(s)
		}
	}
	return nil
}

// reportLayers fills the tick split of a traced sim run and checks
// that the split accounts for the tick with no negative self time.
func reportLayers(rep *report, lt *layerTimes) {
	ovh := spanOverhead()
	per := func(s span) float64 { return s.net(ovh, lt.laneTicks) }
	tick := float64(lt.tickBusy) / float64(lt.intervals)
	decide, migr, adv, pow := per(lt.decide), per(lt.migration), per(lt.advance), per(lt.power)
	batch := per(lt.batch)
	therm := per(lt.thermal) + batch
	self := tick - (decide + migr + adv + pow + therm)

	rep.set("sim.ticks", float64(lt.laneTicks))
	rep.set("sim.tick_ns", tick)
	rep.set("sim.self_ns_per_tick", self)
	rep.set("core.decide_ns_per_tick", decide)
	rep.set("sensor.hottest_ns_per_tick", per(lt.sensor))
	rep.set("migration.step_ns_per_tick", migr)
	rep.set("migration.decisions", float64(lt.decisions))
	rep.set("trace.advance_ns_per_tick", adv)
	rep.set("power.block_power_ns_per_tick", pow)
	rep.set("thermal.step_ns_per_tick", therm)
	rep.set("thermal.batch_step_ns_per_lane", batch)
	rep.set("sim.alloc_bytes_per_tick", float64(lt.allocated)/float64(lt.intervals))
	// The tracing's own cost: every span's measured empty cost, per
	// tick, as a share of the tick.
	var spans int64
	for _, s := range []span{lt.decide, lt.sensor, lt.migration, lt.advance, lt.power, lt.thermal, lt.batch} {
		spans += s.n
	}
	rep.set("bench.trace_overhead_ratio", float64(spans)*ovh/float64(lt.laneTicks)/tick)
	rep.note("tick split (ns per lane-tick): tick %.0f = self %.0f + decide %.0f (sensor %.0f of it) + migration %.0f + trace %.0f + power %.0f + thermal %.0f; span cost %.1f ns removed",
		tick, self, decide, per(lt.sensor), migr, adv, pow, therm, ovh)
	var err error
	if self < 0 {
		err = fmt.Errorf("layer spans (%.0f ns) exceed the tick (%.0f ns): negative self time", tick-self, tick)
	}
	rep.check(err)
}
