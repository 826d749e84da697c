package control

import (
	"fmt"
	"math"

	"multitherm/internal/units"
)

// Paper §4 constants: the published controller gains and the sample
// interval of one thermal measurement every 100,000 cycles at 3.6 GHz.
// Kp and Ki are controller gains, not pure numbers: Kp is scale per °C
// and Ki scale per (°C·s) — the gain-units subtlety Rao et al. highlight
// for integral thermal controllers. There is no units type for either,
// so they stay float64 by design.
const (
	PaperKp = 0.0107
	PaperKi = 248.5
	// PaperSamplePeriod is 100000 cycles / 3.6 GHz ≈ 27.78 µs. The paper
	// rounds this to "28 µs" in prose; the discrete coefficients it
	// publishes correspond to the exact value.
	PaperSamplePeriod units.Seconds = 100000.0 / 3.6e9
)

// PILimits describes the actuator constraints of §4.2.
type PILimits struct {
	Min units.ScaleFactor // minimum output (frequency scale floor, paper: 0.2)
	Max units.ScaleFactor // maximum output (paper: 1.0)
	// MinTransition is the smallest |Δu| that is actually applied,
	// expressed in absolute output units. The paper specifies a minimum
	// transition of 2% of the scaling range; smaller moves are held to
	// avoid thrashing the PLL.
	MinTransition units.ScaleFactor
}

// DefaultPILimits returns the paper's actuator limits: output clipped to
// [0.2, 1.0] with a minimum transition of 2% of the range.
func DefaultPILimits() PILimits {
	return PILimits{Min: 0.2, Max: 1.0, MinTransition: 0.02 * (1.0 - 0.2)}
}

// PIRuntime is the online discrete PI controller of §4.2. It is
// deliberately the same shape as the hardware the paper describes: the
// next output depends only on the previous output, previous error, and
// current error, with clipping providing inherent anti-windup.
//
// The runtime additionally records the running statistics the outer
// migration loop consumes (Figure 1: "records temperature average and
// derivatives when stable"): average applied scale factor, and the
// average observed temperature slope, both over a caller-resettable
// window.
type PIRuntime struct {
	law    DiscretePI
	limits PILimits

	setpoint units.Celsius // target temperature

	u        units.ScaleFactor // internal (clipped) controller state
	applied  units.ScaleFactor // last output actually applied to the PLL
	prevErr  float64           // °C error at the previous sample
	prevTemp units.Celsius
	started  bool

	// Trend-recording window state (feeds sensor-based migration).
	sumScale   float64
	sumSlope   float64
	numSamples int
}

// NewPIRuntime builds a runtime from a discrete control law, actuator
// limits, and the temperature setpoint in °C. The output starts at the
// maximum (core at full speed while cool).
func NewPIRuntime(law DiscretePI, limits PILimits, setpoint units.Celsius) *PIRuntime {
	if limits.Min >= limits.Max {
		panic(fmt.Sprintf("control: invalid PI limits [%g,%g]", limits.Min, limits.Max))
	}
	return &PIRuntime{law: law, limits: limits, setpoint: setpoint, u: limits.Max, applied: limits.Max}
}

// NewPaperPIRuntime builds the exact controller used throughout the
// paper's experiments: forward-Euler discretization of Kp=0.0107,
// Ki=248.5 at the 100K-cycle sample period, clipped to [0.2, 1.0].
func NewPaperPIRuntime(setpoint units.Celsius) *PIRuntime {
	law := C2DPI(PaperKp, PaperKi, PaperSamplePeriod, ForwardEuler)
	return NewPIRuntime(law, DefaultPILimits(), setpoint)
}

// Setpoint returns the target temperature.
func (p *PIRuntime) Setpoint() units.Celsius { return p.setpoint }

// Output returns the actuator value currently applied to the PLL.
func (p *PIRuntime) Output() units.ScaleFactor { return p.applied }

// Step advances the controller one sample period given the measured
// hotspot temperature (the hottest of the sensors the controller
// watches, per §5.2) and returns the actuator output — the frequency
// scale factor in [limits.Min, limits.Max].
func (p *PIRuntime) Step(measuredTemp units.Celsius) units.ScaleFactor {
	e := float64(measuredTemp - p.setpoint)
	if !p.started {
		// First sample: no previous error; treat history as steady.
		p.prevErr = e
		p.prevTemp = measuredTemp
		p.started = true
	}
	next := p.u + units.ScaleFactor(p.law.B0*e+p.law.B1*p.prevErr)

	// Output clipping (§4.2). Because the integral state *is* the
	// clipped previous output, clipping doubles as anti-windup: no
	// hidden integrator accumulates while saturated.
	if next > p.limits.Max {
		next = p.limits.Max
	}
	if next < p.limits.Min {
		next = p.limits.Min
	}
	p.u = next

	// Minimum-transition deadband (paper: 2% of range): the PLL only
	// retargets when the requested move is large enough. The controller
	// state keeps integrating regardless, so the deadband costs no
	// steady-state accuracy; rail values always pass through so full
	// recovery is never held up.
	if math.Abs(float64(next-p.applied)) >= float64(p.limits.MinTransition) ||
		next == p.limits.Max || next == p.limits.Min { //mtlint:allow floatcmp rail values are assigned verbatim from the limits; both sides units.ScaleFactor, same dimension
		p.applied = next
	}

	// Record trend data for the outer loop before rolling state.
	p.sumScale += float64(p.applied)
	p.sumSlope += float64(measuredTemp-p.prevTemp) / float64(p.law.Period)
	p.numSamples++

	p.prevErr = e
	p.prevTemp = measuredTemp
	return p.applied
}

// TrendReport is the per-window summary the PI hardware dumps to the
// OS-level migration controller (Figure 1's "thread-core thermal trend
// data").
type TrendReport struct {
	AvgScale units.ScaleFactor // mean applied frequency scale factor
	//mtlint:allow unit mean dT/dt at the controlled hotspot is °C/s — a rate, neither Celsius nor Seconds
	AvgSlope float64
	Samples  int
}

// Trend returns the statistics accumulated since the last ResetTrend.
func (p *PIRuntime) Trend() TrendReport {
	if p.numSamples == 0 {
		return TrendReport{AvgScale: p.u}
	}
	return TrendReport{
		AvgScale: units.ScaleFactor(p.sumScale / float64(p.numSamples)),
		AvgSlope: p.sumSlope / float64(p.numSamples),
		Samples:  p.numSamples,
	}
}

// ResetTrend clears the trend-recording window (called by the OS after
// each migration decision).
func (p *PIRuntime) ResetTrend() {
	p.sumScale, p.sumSlope, p.numSamples = 0, 0, 0
}

// Reset returns the controller to its initial full-speed state. Used
// when a thread migrates onto a core and stale integral state should
// not carry across contexts.
func (p *PIRuntime) Reset() {
	p.u = p.limits.Max
	p.applied = p.limits.Max
	p.prevErr = 0
	p.prevTemp = 0
	p.started = false
	p.ResetTrend()
}
