// Package marked opts into the determinism contract; every flagged
// construct below carries a want annotation, every compliant variant
// stays silent.
//
//mtlint:deterministic
package marked

import (
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"sync"
	"time"
)

func Clock() time.Duration {
	start := time.Now()      // want `time\.Now reads the wall clock`
	return time.Since(start) // want `time\.Since reads the wall clock`
}

func AllowedClock() time.Time {
	//mtlint:allow time startup banner only, never feeds simulation state
	return time.Now()
}

func GlobalRand() float64 {
	a := rand.Float64()   // want `math/rand\.Float64 uses the globally seeded generator`
	b := randv2.Float64() // want `math/rand/v2\.Float64 uses the globally seeded generator`
	return a + b
}

func SeededRand(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed)) // seeded constructors are compliant
	return rng.Float64()
}

func HostExp(x float64) float64 {
	return math.Exp(x) // want `math\.Exp returns host-dependent bits`
}

func AllowedExp(x float64) float64 {
	//mtlint:allow mathexp report formatting only, never feeds simulation state
	return math.Exp(x)
}

func SumMap(m map[string]float64) float64 {
	var s float64
	for _, v := range m { // want `map iteration order is randomized`
		s += v
	}
	return s
}

func CountMap(m map[string]float64) int {
	n := 0
	//mtlint:allow maprange counting is order-insensitive
	for range m {
		n++
	}
	return n
}

func CollectAppend(n int) []int {
	var results []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mu.Lock()
			results = append(results, i) // want `append to captured .results. inside goroutine`
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return results
}

func CollectIndexed(n int) []int {
	results := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = i // index-addressed: order independent of scheduling
		}(i)
	}
	wg.Wait()
	return results
}
