// Package sensor models on-chip thermal sensors. Every DTM policy in
// the paper relies on sensors "to make proper decisions at the correct
// times" (§2.5): stop-go trips on them, the PI controllers consume the
// hottest watched sensor (§5.2), and sensor-based migration tracks their
// trends over time. Sensors read the thermal model's block temperatures
// with optional quantization, offset, and deterministic noise — the
// Banias ACPI diode of Table 1, for instance, quantizes to whole
// degrees Celsius.
//
//mtlint:units
package sensor

import (
	"fmt"
	"math"

	"multitherm/internal/floorplan"
	"multitherm/internal/units"
)

// Sensor watches a single floorplan block.
type Sensor struct {
	Name  string
	Block int // die-block index in the floorplan / thermal model
	Core  int // owning core, or floorplan.SharedCore

	// Quantization rounds readings to the nearest multiple (°C).
	// Zero means a continuous reading.
	Quantization units.Celsius
	// NoiseAmplitude adds deterministic pseudo-random error in
	// [−NoiseAmplitude, +NoiseAmplitude] °C, varying per reading index.
	NoiseAmplitude units.Celsius
	// Offset is a fixed calibration error in °C.
	Offset units.Celsius
	// Seed decorrelates noise across sensors.
	Seed uint64
}

// Read returns the sensor value for the given block temperatures at
// reading index n (deterministic in n for reproducibility).
func (s *Sensor) Read(temps units.TempVec, n int64) units.Celsius {
	v := temps[s.Block] + float64(s.Offset)
	if s.NoiseAmplitude > 0 {
		v += float64(s.NoiseAmplitude) * noise(s.Seed, uint64(n))
	}
	if q := float64(s.Quantization); q > 0 {
		v = math.Round(v/q) * q
	}
	return units.Celsius(v)
}

// noise maps (seed, n) deterministically to [−1, 1].
func noise(seed, n uint64) float64 {
	x := seed ^ 0xD1B54A32D192ED03 ^ (n * 0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x)/float64(math.MaxUint64)*2 - 1
}

// Bank is an ordered set of sensors, typically one core's watched
// hotspots or the whole chip's sensor complement. Build banks with
// NewBank: the per-core methods (CoreSensors, HottestForCore) read an
// index NewBank derives from the sensors' Core fields, so a bank
// assembled as a literal has no per-core sensors, and appending to
// Sensors or changing a sensor's Core afterwards leaves the index
// stale. Other fields (quantization, noise, offset) may be adjusted
// freely.
type Bank struct {
	Sensors []Sensor

	cores *floorplan.CoreIndex // sensor ids by owning core; nil for a literal bank
}

// NewBank builds a bank over sensors (which it takes ownership of),
// indexing them by owning core.
func NewBank(sensors []Sensor) *Bank {
	owner := make([]int, len(sensors))
	for i, s := range sensors {
		owner[i] = s.Core
	}
	return &Bank{Sensors: sensors, cores: floorplan.GroupByCore(owner)}
}

// CoreSensors returns the bank indices of the sensors owned by core, in
// declaration order; empty for a core with no sensors. The slice is
// shared and must not be modified.
//
//mtlint:zeroalloc
func (b *Bank) CoreSensors(core int) []int32 {
	if b.cores == nil {
		return nil
	}
	return b.cores.Core(core)
}

// Hottest returns the maximum reading across the bank and the index
// (within the bank) of the sensor that produced it. The PI controller
// "typically selects the hottest of the input temperatures" (§4.1).
func (b *Bank) Hottest(temps units.TempVec, n int64) (units.Celsius, int) {
	if len(b.Sensors) == 0 {
		panic("sensor: Hottest on empty bank")
	}
	max, idx := units.Celsius(math.Inf(-1)), -1
	for i := range b.Sensors {
		if v := b.Sensors[i].Read(temps, n); v > max {
			max, idx = v, i
		}
	}
	return max, idx
}

// ReadAll fills dst with every sensor's reading.
func (b *Bank) ReadAll(dst units.TempVec, temps units.TempVec, n int64) units.TempVec {
	if dst == nil {
		dst = units.MakeTempVec(len(b.Sensors))
	}
	for i := range b.Sensors {
		dst.Set(i, b.Sensors[i].Read(temps, n))
	}
	return dst
}

// ForCore returns the sub-bank of sensors owned by the given core.
// It allocates a fresh bank; per-tick readers use HottestForCore or
// CoreSensors instead.
func (b *Bank) ForCore(core int) *Bank {
	var out []Sensor
	for _, s := range b.Sensors {
		if s.Core == core {
			out = append(out, s)
		}
	}
	return NewBank(out)
}

// HottestForCore returns the maximum reading across the sensors owned
// by the given core and the index (within this bank) of the sensor that
// produced it. Readings and scan order match ForCore(core).Hottest
// exactly — sensors keep their declaration order either way, and the
// first maximum wins — but only the core's own sensors are visited and
// nothing is allocated, so throttlers can call it for every core every
// control tick at O(sensors per core). Panics if the core owns no
// sensors, like Hottest on an empty bank.
//
//mtlint:zeroalloc
func (b *Bank) HottestForCore(core int, temps units.TempVec, n int64) (units.Celsius, int) {
	max, idx := units.Celsius(math.Inf(-1)), -1
	for _, i := range b.CoreSensors(core) {
		if v := b.Sensors[i].Read(temps, n); v > max {
			max, idx = v, int(i)
		}
	}
	if idx < 0 {
		b.noSensorsForCore(core)
	}
	return max, idx
}

// noSensorsForCore lives outside HottestForCore so the formatting
// allocation stays off the hot function's escape analysis.
//
//go:noinline
func (b *Bank) noSensorsForCore(core int) {
	panic(fmt.Sprintf("sensor: HottestForCore on core %d with no sensors (bank size %d, built by NewBank: %t)",
		core, len(b.Sensors), b.cores != nil))
}

// CoreHotspots builds the paper's per-core sensor complement: one
// sensor at each register-file unit ("thermal sensors at the two
// register file units on each core sense the hotspot temperatures",
// §5.1). Quantization and noise default to an idealized fast sensor;
// callers may adjust fields afterwards.
func CoreHotspots(fp *floorplan.Floorplan) (*Bank, error) {
	idx, err := fp.Cores()
	if err != nil {
		return nil, err
	}
	n := idx.NumCores()
	sensors := make([]Sensor, 0, 2*n)
	for core := 0; core < n; core++ {
		// The first block of each kind in floorplan order, as
		// FindCoreBlock would pick it.
		irf, fprf := -1, -1
		for _, i := range idx.Core(core) {
			switch fp.Blocks[i].Kind {
			case floorplan.KindIntRegFile:
				if irf < 0 {
					irf = int(i)
				}
			case floorplan.KindFPRegFile:
				if fprf < 0 {
					fprf = int(i)
				}
			}
		}
		if irf < 0 || fprf < 0 {
			return nil, fmt.Errorf("sensor: core %d lacks register-file blocks", core)
		}
		sensors = append(sensors,
			Sensor{
				Name: fmt.Sprintf("c%d_irf", core), Block: irf, Core: core,
				Quantization: 0.1, Seed: uint64(1000 + core*2),
			},
			Sensor{
				Name: fmt.Sprintf("c%d_fprf", core), Block: fprf, Core: core,
				Quantization: 0.1, Seed: uint64(1001 + core*2),
			},
		)
	}
	return NewBank(sensors), nil
}

// ACPIDiode builds the single edge-of-die diode of the paper's Banias
// measurements: 1 °C quantization ("all measurements are rounded to the
// nearest degree Celsius").
func ACPIDiode(fp *floorplan.Floorplan) (*Bank, error) {
	idx := fp.BlockIndex("diode_site")
	if idx < 0 {
		return nil, fmt.Errorf("sensor: floorplan %s has no diode_site block", fp.Name)
	}
	return NewBank([]Sensor{{
		Name: "acpi_diode", Block: idx, Core: 0, Quantization: 1.0, Seed: 4242,
	}}), nil
}
