// Command perfbench is multitherm's end-to-end benchmark. One run
// drives one workload through the program's public entry points —
// experiments, sim, serve.New(...).Handler() over loopback HTTP, and
// the exported functions of each simulation-tick layer — checks every
// operation's output, and prints every metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, measured with no
// tracing; with --trace 1 a separate traced pass reports the per-layer
// split. See README.md for the workloads and the layer map.
//
//	bash perfbench/run.sh --workload table8 --seed 1 --seconds 20 --trace 0
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// maxSeconds bounds --seconds: every run must finish well inside the
// benchmark's per-run time limit.
const maxSeconds = 60

// options are the parsed, clamped command-line settings of one run.
type options struct {
	seed    int64
	measure time.Duration // how long the timed phase runs
	traced  bool
	nproc   int // workers and connections: the machine's CPU count
}

// benchWorkload is one named input set of the benchmark; README.md and
// BENCHMARK.json say why each exists.
type benchWorkload struct {
	name string
	// untraced measures the end-to-end metrics; traced the per-layer
	// split. Both check outputs into the report they fill.
	untraced func(o options, rep *report) error
	traced   func(o options, rep *report) error
	// probe times the program's cold set-up in a fresh process (see
	// setup.go).
	probe func(o options) (time.Duration, error)
}

var workloads = []benchWorkload{
	{"table8", runTable8, traceTable8, probeTable8},
	{"manycore_n256", runManycore, traceManycore, probeManycore},
	{"serve_light", runServeLight, traceServeLight, serveLight.probeSetup},
	{"serve_heavy", runServeHeavy, traceServeHeavy, serveHeavy.probeSetup},
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code made explicit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, fmt.Sprintf("length of the timed phase in seconds [1, %d]", maxSeconds))
	trace := fs.Int("trace", 0, "0 measures end-to-end metrics, 1 the traced per-layer split")
	probe := fs.Bool("probe-setup", false, "time the workload's cold set-up once in this fresh process and print it (used by the run itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (known: %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || *seconds > maxSeconds {
		fmt.Fprintf(stderr, "perfbench: --seconds %d outside [1, %d]\n", *seconds, maxSeconds)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	o := options{
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		nproc:   runtime.NumCPU(),
	}

	if *probe {
		d, err := w.probe(o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: set-up probe: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s%.9f\n", probePrefix, d.Seconds())
		return 0
	}

	rep := newReport(o.traced)
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%d trace=%d nproc=%d\n",
		w.name, o.seed, *seconds, *trace, o.nproc)
	runFn := w.untraced
	if o.traced {
		runFn = w.traced
	} else {
		setup, err := measureSetup(w.name)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		rep.set("setup_s", setup)
	}
	if err := runFn(o, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if rep.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed their correctness check\n",
			w.name, rep.failed, rep.attempted)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return names
}
