// Package unmarked carries no //mtlint:deterministic directive, so the
// analyzer must stay silent on constructs it would flag elsewhere.
package unmarked

import (
	"math"
	"math/rand"
	"time"
)

func Clock() time.Time { return time.Now() }

func GlobalRand() float64 { return rand.Float64() }

func HostExp(x float64) float64 { return math.Exp(x) }

func SumMap(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}
