package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64) []arrival {
		rng := rand.New(rand.NewSource(seed))
		g := serveHeavy.newGen(rng)
		return schedule(rng, 100, 200, g.next)
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Fatal("different seeds gave the same schedule")
	}
	seen := map[string]bool{}
	for i, x := range a {
		if i > 0 && x.due < a[i-1].due {
			t.Fatalf("arrival %d due at %v, before arrival %d at %v", i, x.due, i-1, a[i-1].due)
		}
		if seen[x.req.key] {
			t.Fatalf("serve_heavy repeated key %s; every request must miss", x.req.key)
		}
		seen[x.req.key] = true
	}
}

func TestServeLightMixesHitsAndFreshKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := serveLight.newGen(rng)
	hits := 0
	for _, a := range schedule(rng, 80, 2000, g.next) {
		if a.req.hit {
			hits++
		}
	}
	if share := float64(hits) / 2000; share < 0.75 || share > 0.85 {
		t.Fatalf("hit share %.3f, want about 0.8", share)
	}
}

func TestPercentileEnforcesTailSamples(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Fatal("p99 of 999 samples leaves 9 beyond it; want an error")
	}
	xs = append(xs, 999)
	p, err := percentile(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if p != 989 {
		t.Fatalf("p99 of 0..999 = %v, want 989 (10 samples beyond)", p)
	}
	if m, err := percentile([]float64{3}, 0.5); err != nil || m != 3 {
		t.Fatalf("median of one sample = %v, %v", m, err)
	}
}

func TestCapacityInterpolatesTheLimitCrossing(t *testing.T) {
	rates := []float64{100, 200, 300}
	// log(p99) rises by log 3 from 200 to 300 req/s; log 2 of it is
	// left below the limit.
	if c, want := capacity(rates, []float64{10, 20, 60}, 40), 200+100*math.Log(2)/math.Log(3); math.Abs(c-want) > 1e-9 {
		t.Fatalf("capacity = %v, want %v", c, want)
	}
	// The first failing rung ends the climb; a passing rung above it
	// does not count.
	if c, want := capacity(rates, []float64{10, 80, 20}, 40), 100+100*math.Log(4)/math.Log(8); math.Abs(c-want) > 1e-9 {
		t.Fatalf("capacity = %v, want %v", c, want)
	}
	if c, want := capacity(rates, []float64{10, 20, 30}, 40), 300.0; c != want {
		t.Fatalf("every rung passing: capacity = %v, want the top rung %v", c, want)
	}
}

func TestColdWarmSubtractsTheWarmRepeat(t *testing.T) {
	var calls []bool
	d, err := coldWarm(func(warm bool) error {
		calls = append(calls, warm)
		if !warm {
			time.Sleep(20 * time.Millisecond)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []bool{false, true, true, true}; !reflect.DeepEqual(calls, want) {
		t.Fatalf("op called as %v, want %v: cold, then %d warm repeats", calls, want, warmRepeats)
	}
	if d < 15*time.Millisecond || d > time.Second {
		t.Fatalf("set-up %v, want about the 20 ms the cold call slept", d)
	}
	// One slow warm repeat does not hide the set-up.
	calls = nil
	d, err = coldWarm(func(warm bool) error {
		calls = append(calls, warm)
		if !warm || len(calls) == 2 {
			time.Sleep(20 * time.Millisecond)
		}
		return nil
	})
	if err != nil || d < 15*time.Millisecond {
		t.Fatalf("set-up %v, %v with one stalled warm repeat; want about 20 ms", d, err)
	}
	if _, err := coldWarm(func(warm bool) error {
		if warm {
			time.Sleep(20 * time.Millisecond)
		}
		return nil
	}); err == nil {
		t.Fatal("warm repeats all slower than the cold call must be an error")
	}
}

func TestMetricNamesAreWellFormedAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, metricName)
		}
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.name) {
			t.Errorf("workload name %q does not match %s", w.name, metricName)
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the
// repository root names workloads this program runs and exactly the
// metrics it reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads, want at least 2", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not one the program runs", w.Name)
		}
	}
	for _, c := range []struct {
		got  []metric
		want []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, program reports %d", len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("BENCHMARK.json metric %d is %s [%s], program reports %s [%s]",
					i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}
