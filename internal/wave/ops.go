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

// ScaledV returns a copy with every voltage multiplied by k.
func (w *Waveform) ScaledV(k float64) *Waveform {
	out := w.Clone()
	for i := range out.V {
		out.V[i] *= k
	}
	return out
}

// OffsetV returns a copy with dv added to every voltage.
func (w *Waveform) OffsetV(dv float64) *Waveform {
	out := w.Clone()
	for i := range out.V {
		out.V[i] += dv
	}
	return out
}

// Resample returns the waveform sampled at n uniform points over [t0, t1]
// (clamped evaluation outside the original span).
func (w *Waveform) Resample(t0, t1 float64, n int) *Waveform {
	if n < 2 {
		n = 2
	}
	t := make([]float64, n)
	v := make([]float64, n)
	dt := (t1 - t0) / float64(n-1)
	for i := 0; i < n; i++ {
		t[i] = t0 + float64(i)*dt
		v[i] = w.At(t[i])
	}
	return &Waveform{T: t, V: v}
}

// SampleTimes evaluates the waveform on an arbitrary increasing time grid.
func (w *Waveform) SampleTimes(ts []float64) *Waveform {
	t := append([]float64(nil), ts...)
	v := make([]float64, len(ts))
	for i, x := range t {
		v[i] = w.At(x)
	}
	return &Waveform{T: t, V: v}
}

// Window returns the sub-waveform on [t0, t1], adding interpolated boundary
// samples so the result spans exactly the window (clamped to the waveform's
// own span).
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
// (one-sided at the boundaries).
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

// Integral returns ∫ v dt over [t0, t1] of the piecewise-linear waveform
// (clamped extension outside the span).
func (w *Waveform) Integral(t0, t1 float64) float64 {
	if t1 < t0 {
		return -w.Integral(t1, t0)
	}
	s := 0.0
	// Clamped region before the first sample.
	if t0 < w.Start() {
		end := math.Min(t1, w.Start())
		s += w.V[0] * (end - t0)
		t0 = end
		if t0 >= t1 {
			return s
		}
	}
	// Clamped region after the last sample.
	var tail float64
	if t1 > w.End() {
		tail = w.V[len(w.V)-1] * (t1 - w.End())
		t1 = w.End()
	}
	if t1 > t0 {
		prevT := t0
		prevV := w.At(t0)
		i := sort.SearchFloat64s(w.T, t0)
		for ; i < len(w.T) && w.T[i] <= t1; i++ {
			if w.T[i] <= prevT {
				continue
			}
			s += 0.5 * (prevV + w.V[i]) * (w.T[i] - prevT)
			prevT, prevV = w.T[i], w.V[i]
		}
		if prevT < t1 {
			v1 := w.At(t1)
			s += 0.5 * (prevV + v1) * (t1 - prevT)
		}
	}
	return s + tail
}

// Monotonicized returns a copy whose voltage series is forced monotonic in
// the direction dir by running a cumulative max (rising) or min (falling).
// This provides a well-defined inverse v→t mapping for noiseless edges that
// carry tiny numerical ripples.
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

// TimeAtVoltage inverts the waveform: it returns the first time (rising) or
// first time (falling) at which the monotonicized waveform reaches voltage
// v. Returns false when v lies outside the waveform's voltage range.
func (w *Waveform) TimeAtVoltage(v float64, dir Edge) (float64, bool) {
	m := w.Monotonicized(dir)
	c := m.Crossings(v)
	if len(c) == 0 {
		return 0, false
	}
	return c[0], true
}

// MaxAbsDiff returns max_t |w(t) − o(t)| evaluated on the union of both
// sample grids restricted to the overlap of the two spans.
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
