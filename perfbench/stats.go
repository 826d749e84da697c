package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// tail percentile; with fewer the percentile is an outlier, not a
// measurement.
const minTail = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1).
// Above the median it refuses to answer unless at least minTail
// samples lie beyond the returned rank, so a p99 needs 1000 samples.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile q=%g of %d samples", q, n)
	}
	rank := int(math.Ceil(q*float64(n))) - 1 // 0-based nearest rank
	if q > 0.5 && n-1-rank < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it; %d samples leave %d",
			q*100, minTail, n, n-1-rank)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank], nil
}

// median returns the middle value of xs (the mean of the middle two
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
