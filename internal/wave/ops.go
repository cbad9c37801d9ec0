package wave

import (
	"fmt"
	"math"
	"sort"
)

// Shifted returns a copy of w translated by dt in time.
func (w *Waveform) Shifted(dt float64) *Waveform {
	out := w.Clone()
	for i := range out.T {
		out.T[i] += dt
	}
	return out
}

// Window returns the sub-waveform on [t0, t1], adding interpolated boundary
// samples so the result spans exactly the window (clamped to the waveform's
// own span). It is ErrEmptyWindow's only producer; the facade's error
// contract test (api_test.go) checks that sentinel through it.
func (w *Waveform) Window(t0, t1 float64) (*Waveform, error) {
	if t1 <= t0 {
		return nil, fmt.Errorf("%w: [%g,%g]", ErrEmptyWindow, t0, t1)
	}
	t0 = math.Max(t0, w.Start())
	t1 = math.Min(t1, w.End())
	if t1 <= t0 {
		return nil, fmt.Errorf("%w: [%g,%g] outside waveform span [%g,%g]", ErrEmptyWindow, t0, t1, w.Start(), w.End())
	}
	lo := sort.SearchFloat64s(w.T, t0)
	hi := sort.SearchFloat64s(w.T, t1)
	var ts, vs []float64
	if lo < len(w.T) && w.T[lo] != t0 || lo == len(w.T) {
		ts = append(ts, t0)
		vs = append(vs, w.At(t0))
	}
	for i := lo; i < hi && i < len(w.T); i++ {
		ts = append(ts, w.T[i])
		vs = append(vs, w.V[i])
	}
	if len(ts) == 0 || ts[len(ts)-1] != t1 {
		ts = append(ts, t1)
		vs = append(vs, w.At(t1))
	}
	return New(ts, vs)
}

// Derivative returns dv/dt as a waveform sampled at segment midpoints
// projected back onto the original grid by central differences
// (one-sided at the boundaries). Production code reads slopes through
// Sampler.Slope; Derivative is the copy its tests compare against.
func (w *Waveform) Derivative() *Waveform {
	t := append([]float64(nil), w.T...)
	d := make([]float64, len(t))
	for i := range d {
		d[i] = w.slopeAt(i, 0)
	}
	return &Waveform{T: t, V: d}
}

// slopeAt is the derivative estimate at sample i of w translated by dt in
// time: the three-point formula on a possibly non-uniform grid, one-sided
// at the ends, zero for a single sample. Derivative (dt = 0) and
// Sampler.Slope share it; the shifted times are formed exactly as Shifted
// forms them, so a slope read through a shifted sampler is bit-identical
// to one read off w.Shifted(dt).Derivative().
func (w *Waveform) slopeAt(i int, dt float64) float64 {
	n := len(w.T)
	switch {
	case n == 1:
		return 0
	case i == 0:
		return (w.V[1] - w.V[0]) / ((w.T[1] + dt) - (w.T[0] + dt))
	case i == n-1:
		return (w.V[n-1] - w.V[n-2]) / ((w.T[n-1] + dt) - (w.T[n-2] + dt))
	}
	h0 := (w.T[i] + dt) - (w.T[i-1] + dt)
	h1 := (w.T[i+1] + dt) - (w.T[i] + dt)
	return (w.V[i+1]*h0*h0 - w.V[i-1]*h1*h1 + w.V[i]*(h1*h1-h0*h0)) / (h0 * h1 * (h0 + h1))
}

// Monotonicized returns a copy whose voltage series is forced monotonic in
// the direction dir by running a cumulative max (rising) or min (falling).
// This provides a well-defined inverse v→t mapping for noiseless edges that
// carry tiny numerical ripples. Production code reads the envelope through
// Sampler.Envelope; Monotonicized is the copy its tests and the eqwave
// reference fits (legacy_test.go) compare against.
func (w *Waveform) Monotonicized(dir Edge) *Waveform {
	out := w.Clone()
	if dir == Rising {
		for i := 1; i < len(out.V); i++ {
			if out.V[i] < out.V[i-1] {
				out.V[i] = out.V[i-1]
			}
		}
	} else {
		for i := 1; i < len(out.V); i++ {
			if out.V[i] > out.V[i-1] {
				out.V[i] = out.V[i-1]
			}
		}
	}
	return out
}

// MaxAbsDiff returns max_t |w(t) − o(t)| evaluated on the union of both
// sample grids restricted to the overlap of the two spans. Tests use it:
// the crosstalk testbench test measures noise distortion with it.
func (w *Waveform) MaxAbsDiff(o *Waveform) float64 {
	lo := math.Max(w.Start(), o.Start())
	hi := math.Min(w.End(), o.End())
	max := 0.0
	check := func(ts []float64) {
		for _, t := range ts {
			if t < lo || t > hi {
				continue
			}
			if d := math.Abs(w.At(t) - o.At(t)); d > max {
				max = d
			}
		}
	}
	check(w.T)
	check(o.T)
	return max
}
