package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"multitherm/internal/floorplan"
	"multitherm/internal/thermal"
	"multitherm/internal/trace"
	"multitherm/internal/uarch"
	"multitherm/internal/units"
	"multitherm/internal/workload"
)

// setup_s is the program's own cold set-up: everything the first
// operation of a fresh process pays for and a repeat of it does not —
// the floorplan, thermal templates and their discretization, recorded
// traces, warm-up steady states, and for serve workloads the server
// start. A run starts setupProbes fresh copies of this binary with
// --probe-setup; each times one operation cold and then warm, and
// prints the difference. setup_s is their median.

// setupProbes is how many fresh processes a run times its set-up in.
const setupProbes = 9

// probeTimeout bounds one probe process.
const probeTimeout = 60 * time.Second

// probeSimTime is the simulated time of a set-up probe's operations: a
// few control ticks, so the warm repeat costs little beside the
// set-up it is subtracted from.
const probeSimTime = 1e-4

// probePrefix starts the line a probe process prints its result on.
const probePrefix = "setup_s "

// measureSetup runs setupProbes probe processes for the workload, one
// after another, and returns the median of their set-up times.
func measureSetup(name string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i < setupProbes; i++ {
		v, err := runProbe(exe, name)
		if err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		xs = append(xs, v)
	}
	return median(xs), nil
}

func runProbe(exe, name string) (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, "--workload", name, "--probe-setup")
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("%w: %s", err, strings.TrimSpace(stderr.String()))
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), probePrefix); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("probe printed no %q line", strings.TrimSpace(probePrefix))
}

// warmRepeats is how many warm repeats coldWarm takes the fastest of,
// so a host stall during one repeat cannot hide the set-up.
const warmRepeats = 3

// coldWarm times op cold, then warm (the fastest of warmRepeats
// repeats), and returns the difference: the set-up the first call
// paid for. It must be the process's first call into the program.
func coldWarm(op func(warm bool) error) (time.Duration, error) {
	t := time.Now()
	if err := op(false); err != nil {
		return 0, err
	}
	cold := time.Since(t)
	warm := cold
	for i := 0; i < warmRepeats; i++ {
		t = time.Now()
		if err := op(true); err != nil {
			return 0, err
		}
		warm = min(warm, time.Since(t))
	}
	d := cold - warm
	if d <= 0 {
		return 0, fmt.Errorf("cold operation (%v) was not slower than its warm repeats", cold)
	}
	return d, nil
}

// The rest of this file is the traced run's set-up split: the same
// set-up rebuilt from the public constructors, one layer at a time.
// Its spans are per-layer metrics only.

// setupTimes are the spans of one cold set-up, built from the public
// constructors the program memoizes behind its first operation.
type setupTimes struct {
	template, discretize, record, warm time.Duration
}

func (s setupTimes) total() time.Duration {
	return s.template + s.discretize + s.record + s.warm
}

// setupResult is the median of the repeated set-up splits, plus the
// once-per-process floorplan build and the traces the last repetition
// recorded (the traced run replays through them).
type setupResult struct {
	grid   time.Duration // floorplan build; memoized, so cold only once
	median setupTimes
	traces map[string]*trace.Trace
}

// setupReps is how many times a traced run repeats the set-up split.
const setupReps = 15

// setupSpec describes what a workload builds before its first
// operation.
type setupSpec struct {
	floorplan  func() (*floorplan.Floorplan, error)
	params     func(*floorplan.Floorplan) thermal.Params
	dt         units.Seconds
	uarch      uarch.Config
	intervals  int
	benchmarks []string
}

// coldSetup times the workload's set-up split setupReps times: a fresh
// thermal template (RC network), its discretization at the control
// period, one recorded trace per benchmark, and the two steady-state
// solves of the warm-up.
func coldSetup(spec setupSpec) (setupResult, error) {
	var res setupResult
	t0 := time.Now()
	fp, err := spec.floorplan()
	if err != nil {
		return res, err
	}
	res.grid = time.Since(t0)
	params := spec.params(fp)

	var reps []setupTimes
	for i := 0; i < setupReps; i++ {
		var st setupTimes
		t := time.Now()
		tmpl, err := thermal.NewTemplate(fp, params)
		if err != nil {
			return res, err
		}
		st.template = time.Since(t)

		t = time.Now()
		if _, err := tmpl.Discretization(spec.dt); err != nil {
			return res, err
		}
		st.discretize = time.Since(t)

		t = time.Now()
		traces := map[string]*trace.Trace{}
		for _, b := range spec.benchmarks {
			if traces[b] != nil {
				continue
			}
			prof, err := workload.Profile(b)
			if err != nil {
				return res, err
			}
			gen, err := uarch.NewGenerator(spec.uarch, prof)
			if err != nil {
				return res, err
			}
			if traces[b], err = trace.Record(gen, spec.intervals); err != nil {
				return res, err
			}
		}
		st.record = time.Since(t)

		// The warm-up solves the steady state of the mix's average
		// power, then again of the rescaled power; the solve cost does
		// not depend on the values.
		t = time.Now()
		watts := make(units.PowerVec, tmpl.NumBlocks())
		for j := range watts {
			watts[j] = 0.5
		}
		for k := 0; k < 2; k++ {
			if _, err := tmpl.SteadyState(watts); err != nil {
				return res, err
			}
		}
		st.warm = time.Since(t)
		reps = append(reps, st)
		res.traces = traces
	}
	res.median = setupTimes{
		template:   medianDur(reps, func(s setupTimes) time.Duration { return s.template }),
		discretize: medianDur(reps, func(s setupTimes) time.Duration { return s.discretize }),
		record:     medianDur(reps, func(s setupTimes) time.Duration { return s.record }),
		warm:       medianDur(reps, func(s setupTimes) time.Duration { return s.warm }),
	}
	if res.median.total() <= 0 {
		return res, fmt.Errorf("set-up split measured no time")
	}
	return res, nil
}

func medianDur(reps []setupTimes, f func(setupTimes) time.Duration) time.Duration {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = float64(f(r))
	}
	return time.Duration(median(xs))
}

// reportSetup fills the per-layer set-up metrics of a traced run.
func reportSetup(rep *report, s setupResult) {
	rep.set("floorplan.grid_s", s.grid.Seconds())
	rep.set("thermal.template_s", s.median.template.Seconds())
	rep.set("thermal.discretize_s", s.median.discretize.Seconds())
	rep.set("trace.record_s", s.median.record.Seconds())
}
