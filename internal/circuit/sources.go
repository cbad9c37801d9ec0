package circuit

import (
	"sort"

	"noisewave/internal/wave"
)

// Source is a time-varying scalar driving a voltage source.
type Source interface {
	// At returns the source value at time t.
	At(t float64) float64
	// Breakpoints returns times at which the source's derivative is
	// discontinuous, so the integrator can align steps with them.
	Breakpoints() []float64
}

// DCSource is a constant source.
type DCSource float64

// At implements Source.
func (d DCSource) At(float64) float64 { return float64(d) }

// Breakpoints implements Source.
func (d DCSource) Breakpoints() []float64 { return nil }

// PWL is a piecewise-linear source defined by (time, value) knots with
// clamped extension. The knot times must be strictly increasing.
type PWL struct {
	T []float64
	V []float64
}

// At implements Source.
func (p PWL) At(t float64) float64 {
	n := len(p.T)
	if n == 0 {
		return 0
	}
	if t <= p.T[0] {
		return p.V[0]
	}
	if t >= p.T[n-1] {
		return p.V[n-1]
	}
	i := sort.SearchFloat64s(p.T, t)
	if p.T[i] == t {
		return p.V[i]
	}
	t0, t1 := p.T[i-1], p.T[i]
	v0, v1 := p.V[i-1], p.V[i]
	return v0 + (v1-v0)*(t-t0)/(t1-t0)
}

// Breakpoints implements Source.
func (p PWL) Breakpoints() []float64 { return p.T }

// RampSource builds a saturated-ramp PWL: value v0 until t0, then a linear
// transition of duration tt to v1 (tt is the full 0–100% transition time).
func RampSource(t0, tt, v0, v1 float64) PWL {
	if tt <= 0 {
		tt = 1e-15
	}
	return PWL{T: []float64{t0, t0 + tt}, V: []float64{v0, v1}}
}

// SlewRamp builds a rising or falling full-swing ramp whose 10–90% slew is
// the given value (the paper specifies input slews as 10–90% times).
func SlewRamp(t0, slew1090, vdd float64, dir wave.Edge) PWL {
	full := slew1090 / 0.8
	if dir == wave.Rising {
		return RampSource(t0, full, 0, vdd)
	}
	return RampSource(t0, full, vdd, 0)
}

// WaveSource adapts a sampled waveform into a source, enabling replay of
// simulator output — or of an equivalent linear waveform Γeff — as an ideal
// drive in a follow-up simulation.
type WaveSource struct {
	W *wave.Waveform
}

// At implements Source.
func (s WaveSource) At(t float64) float64 { return s.W.At(t) }

// Breakpoints implements Source.
func (s WaveSource) Breakpoints() []float64 { return s.W.T }

// RampWaveSource adapts a wave.Ramp into a source.
type RampWaveSource struct {
	R wave.Ramp
}

// At implements Source.
func (s RampWaveSource) At(t float64) float64 { return s.R.At(t) }

// Breakpoints implements Source.
func (s RampWaveSource) Breakpoints() []float64 {
	t0, t1, err := s.R.Span()
	if err != nil {
		return nil
	}
	return []float64{t0, t1}
}
