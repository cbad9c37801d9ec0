package wave

import (
	"fmt"
	"math"
)

// Ramp is a saturated linear waveform v(t) = clamp(A·t + B, VLow, VHigh):
// the equivalent linear waveform Γeff with slope A and intercept B, clamped
// to the supply rails. A > 0 is a rising edge, A < 0 a falling edge.
type Ramp struct {
	A, B        float64 // v = A·t + B inside the transition window
	VLow, VHigh float64 // saturation rails (normally 0 and Vdd)
}

// NewRamp constructs a ramp from slope/intercept and rails.
func NewRamp(a, b, vlow, vhigh float64) Ramp {
	if vhigh < vlow {
		vlow, vhigh = vhigh, vlow
	}
	return Ramp{A: a, B: b, VLow: vlow, VHigh: vhigh}
}

// RampThroughPoint builds the ramp with slope a passing through (t0, v0).
func RampThroughPoint(a, t0, v0, vlow, vhigh float64) Ramp {
	return NewRamp(a, v0-a*t0, vlow, vhigh)
}

// Edge returns the transition direction implied by the slope.
func (r Ramp) Edge() Edge {
	if r.A >= 0 {
		return Rising
	}
	return Falling
}

// At evaluates the clamped ramp at time t.
func (r Ramp) At(t float64) float64 {
	v := r.A*t + r.B
	if v < r.VLow {
		return r.VLow
	}
	if v > r.VHigh {
		return r.VHigh
	}
	return v
}

// TimeAt returns the time at which the unclamped line reaches voltage v.
// An error is returned for a flat ramp.
func (r Ramp) TimeAt(v float64) (float64, error) {
	if r.A == 0 {
		return 0, fmt.Errorf("wave: flat ramp has no crossing at v=%g", v)
	}
	return (v - r.B) / r.A, nil
}

// Span returns the start and end times of the transition (the times at
// which the line meets the two rails), ordered in time.
func (r Ramp) Span() (t0, t1 float64, err error) {
	if r.A == 0 {
		return 0, 0, fmt.Errorf("wave: flat ramp has no span")
	}
	ta := (r.VLow - r.B) / r.A
	tb := (r.VHigh - r.B) / r.A
	if ta > tb {
		ta, tb = tb, ta
	}
	return ta, tb, nil
}

// TransitionTime returns the 10–90% transition time (always positive).
func (r Ramp) TransitionTime() (float64, error) {
	if r.A == 0 {
		return 0, fmt.Errorf("wave: flat ramp has no transition time")
	}
	swing := r.VHigh - r.VLow
	return math.Abs(0.8 * swing / r.A), nil
}

// Arrival returns the time the ramp crosses the midpoint between its rails
// (the STA arrival time of Γeff).
func (r Ramp) Arrival() (float64, error) {
	return r.TimeAt(0.5 * (r.VLow + r.VHigh))
}

// Shifted returns the ramp translated by dt in time.
func (r Ramp) Shifted(dt float64) Ramp {
	return Ramp{A: r.A, B: r.B - r.A*dt, VLow: r.VLow, VHigh: r.VHigh}
}

// ToWaveform samples the clamped ramp into a waveform covering [t0, t1]
// with n points, extending flat rails on either side of the transition.
func (r Ramp) ToWaveform(t0, t1 float64, n int) *Waveform {
	return FromFunc(r.At, t0, t1, n)
}

// String renders slope, midpoint crossing and transition time.
func (r Ramp) String() string {
	mid, errM := r.Arrival()
	tt, errT := r.TransitionTime()
	if errM != nil || errT != nil {
		return fmt.Sprintf("Ramp{flat v=%.4g}", r.B)
	}
	return fmt.Sprintf("Ramp{%s t50=%.4gs tt=%.4gs}", r.Edge(), mid, tt)
}
