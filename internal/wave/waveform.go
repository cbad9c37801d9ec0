// Package wave implements the sampled voltage waveform type used throughout
// the library, together with the saturated-ramp type that represents the
// equivalent linear waveform Γeff of the paper.
//
// A Waveform is an ordered series of (time, voltage) samples interpreted as
// a piecewise-linear function of time. All the geometric queries the
// equivalent-waveform techniques need — threshold crossings, critical
// regions, slews, derivatives, enclosed areas — live here.
package wave

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Edge identifies the direction of a signal transition.
type Edge int

const (
	// Rising is a low-to-high transition.
	Rising Edge = iota
	// Falling is a high-to-low transition.
	Falling
)

// String returns "rise" or "fall".
func (e Edge) String() string {
	if e == Rising {
		return "rise"
	}
	return "fall"
}

// Opposite returns the inverted edge.
func (e Edge) Opposite() Edge {
	if e == Rising {
		return Falling
	}
	return Rising
}

// ErrBadSamples is returned for empty, non-monotonic or non-finite sample
// series.
var ErrBadSamples = errors.New("wave: samples must be non-empty and finite with strictly increasing time")

// ErrEmptyWindow is returned when a requested extraction window is empty or
// does not intersect the waveform's span.
var ErrEmptyWindow = errors.New("wave: empty extraction window")

// Waveform is a piecewise-linear voltage waveform v(t) defined by samples.
// Outside [T[0], T[last]] the waveform is clamped to its boundary values.
type Waveform struct {
	T []float64 // strictly increasing sample times (seconds)
	V []float64 // voltages (volts), len(V) == len(T)
}

// New validates and wraps the given samples (no copy). NaN/Inf times or
// voltages — the signature of a diverged solver upstream — are rejected
// with ErrBadSamples rather than admitted into crossing queries, where
// they would surface as silent geometric anomalies.
func New(t, v []float64) (*Waveform, error) {
	if len(t) == 0 || len(t) != len(v) {
		return nil, ErrBadSamples
	}
	for i := range t {
		if math.IsNaN(t[i]) || math.IsInf(t[i], 0) {
			return nil, fmt.Errorf("%w: t[%d]=%g", ErrBadSamples, i, t[i])
		}
		if math.IsNaN(v[i]) || math.IsInf(v[i], 0) {
			return nil, fmt.Errorf("%w: v[%d]=%g", ErrBadSamples, i, v[i])
		}
	}
	for i := 0; i+1 < len(t); i++ {
		if !(t[i+1] > t[i]) {
			return nil, fmt.Errorf("%w: t[%d]=%g t[%d]=%g", ErrBadSamples, i, t[i], i+1, t[i+1])
		}
	}
	return &Waveform{T: t, V: v}, nil
}

// MustNew is New panicking on error; intended for literals in tests and
// examples.
func MustNew(t, v []float64) *Waveform {
	w, err := New(t, v)
	if err != nil {
		panic(err)
	}
	return w
}

// FromFunc samples f at n uniformly spaced points across [t0, t1].
func FromFunc(f func(float64) float64, t0, t1 float64, n int) *Waveform {
	if n < 2 {
		n = 2
	}
	t := make([]float64, n)
	v := make([]float64, n)
	dt := (t1 - t0) / float64(n-1)
	for i := 0; i < n; i++ {
		t[i] = t0 + float64(i)*dt
		v[i] = f(t[i])
	}
	return &Waveform{T: t, V: v}
}

// Len returns the number of samples.
func (w *Waveform) Len() int { return len(w.T) }

// Start returns the first sample time.
func (w *Waveform) Start() float64 { return w.T[0] }

// End returns the last sample time.
func (w *Waveform) End() float64 { return w.T[len(w.T)-1] }

// Clone returns a deep copy.
func (w *Waveform) Clone() *Waveform {
	return &Waveform{
		T: append([]float64(nil), w.T...),
		V: append([]float64(nil), w.V...),
	}
}

// At evaluates the waveform at time t with linear interpolation, clamping
// outside the sampled span.
func (w *Waveform) At(t float64) float64 {
	n := len(w.T)
	if t <= w.T[0] {
		return w.V[0]
	}
	if t >= w.T[n-1] {
		return w.V[n-1]
	}
	i := sort.SearchFloat64s(w.T, t)
	if w.T[i] == t {
		return w.V[i]
	}
	return lerp(w.T[i-1], w.T[i], w.V[i-1], w.V[i], t)
}

// lerp interpolates linearly at t between (t0, v0) and (t1, v1). At and
// Sampler share it, so both evaluate a segment with the same arithmetic.
func lerp(t0, t1, v0, v1, t float64) float64 {
	return v0 + (v1-v0)*(t-t0)/(t1-t0)
}

// MinV returns the minimum sampled voltage.
func (w *Waveform) MinV() float64 {
	m := math.Inf(1)
	for _, v := range w.V {
		if v < m {
			m = v
		}
	}
	return m
}

// MaxV returns the maximum sampled voltage.
func (w *Waveform) MaxV() float64 {
	m := math.Inf(-1)
	for _, v := range w.V {
		if v > m {
			m = v
		}
	}
	return m
}

// EdgeDir classifies the overall transition direction by comparing the
// boundary voltages.
func (w *Waveform) EdgeDir() Edge {
	if w.V[len(w.V)-1] >= w.V[0] {
		return Rising
	}
	return Falling
}

// String renders a short summary (not the full sample list).
func (w *Waveform) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Waveform{n=%d t=[%.4g,%.4g] v=[%.4g,%.4g] %s}",
		w.Len(), w.Start(), w.End(), w.MinV(), w.MaxV(), w.EdgeDir())
	return b.String()
}
