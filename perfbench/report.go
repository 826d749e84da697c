package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// metricDef names one reported metric and its unit. The two lists
// below are the benchmark's whole vocabulary; BENCHMARK.json lists the
// same names (bench_test.go checks they agree).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one; README.md gives each
// workload's definition.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"core_ticks_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"lat_p50_ms", "ms"},
	{"lat_p99_ms", "ms"},
	{"capacity_rps", "req/s"},
}

// perLayer are the traced run's metrics of single layers. A metric
// that has no meaning on a workload (a serve counter on a sweep) reads
// 0 there.
var perLayer = []metricDef{
	{"sim.ticks", "count"},
	{"sim.tick_ns", "ns"},
	{"sim.self_ns_per_tick", "ns"},
	{"power.block_power_ns_per_tick", "ns"},
	{"thermal.step_ns_per_tick", "ns"},
	{"thermal.batch_step_ns_per_lane", "ns"},
	{"sensor.hottest_ns_per_tick", "ns"},
	{"core.decide_ns_per_tick", "ns"},
	{"migration.step_ns_per_tick", "ns"},
	{"migration.decisions", "count"},
	{"trace.advance_ns_per_tick", "ns"},
	{"sim.alloc_bytes_per_tick", "B"},
	{"floorplan.grid_s", "s"},
	{"thermal.template_s", "s"},
	{"thermal.discretize_s", "s"},
	{"trace.record_s", "s"},
	{"experiments.parallel_efficiency", "ratio"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"serve.requests", "count"},
	{"serve.hit_lat_p50_ms", "ms"},
	{"serve.miss_lat_p50_ms", "ms"},
	{"memo.lookups", "count"},
	{"memo.hit_ratio", "ratio"},
	{"memo.evictions", "count"},
	{"serve.batches", "count"},
	{"serve.batch_width_mean", "lanes"},
	{"serve.window_flush_ratio", "ratio"},
	{"serve.inflight_p99", "count"},
	{"serve.shed_ratio", "ratio"},
	{"serve.compute_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
}

// metricName is the shape every metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// report collects one run's operation counts, metrics and notes.
type report struct {
	defs      []metricDef
	values    map[string]float64
	attempted int
	failed    int
	failures  []string
	notes     []string
}

func newReport(traced bool) *report {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	return &report{defs: defs, values: map[string]float64{}}
}

// set records a metric value; the name must be one of the run's defs.
func (r *report) set(name string, v float64) {
	for _, d := range r.defs {
		if d.name == name {
			r.values[name] = v
			return
		}
	}
	panic(fmt.Sprintf("perfbench: metric %q is not in this run's metric list", name))
}

// check counts one checked operation, and a failure when err is set.
func (r *report) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// note adds an informational line (a printed value, not a metric).
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints the notes, one line per metric, and the JSON result as
// the last line. Metrics a workload left unset read 0.
func (r *report) write(w io.Writer) error {
	if r.attempted == 0 {
		return fmt.Errorf("no operation was checked")
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	fmt.Fprintf(w, "error_rate %.6f ratio (%d failed of %d attempted)\n",
		float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	out := jsonResult{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]jsonMetric{},
	}
	names := make([]string, 0, len(r.defs))
	for _, d := range r.defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", d.name)
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		names = append(names, d.name)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.Metrics[n]
		fmt.Fprintf(w, "metric %-34s %16.6f %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
