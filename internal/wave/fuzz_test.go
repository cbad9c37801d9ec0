package wave

import (
	"encoding/binary"
	"errors"
	"math"
	"sort"
	"testing"
)

// decodeSamples splits a fuzzer byte string into two equal-length float64
// slices (t, v), preserving raw bit patterns so the fuzzer can reach NaN,
// ±Inf, subnormals and every other adversarial encoding directly.
func decodeSamples(data []byte) (t, v []float64) {
	n := len(data) / 16 // 8 bytes per time + 8 per voltage
	if n == 0 {
		return nil, nil
	}
	t = make([]float64, n)
	v = make([]float64, n)
	for i := 0; i < n; i++ {
		t[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
	}
	return t, v
}

// encodeSamples is the seed-corpus inverse of decodeSamples.
func encodeSamples(t, v []float64) []byte {
	data := make([]byte, 16*len(t))
	for i := range t {
		binary.LittleEndian.PutUint64(data[16*i:], math.Float64bits(t[i]))
		binary.LittleEndian.PutUint64(data[16*i+8:], math.Float64bits(v[i]))
	}
	return data
}

// FuzzWaveNew checks the constructor's contract on arbitrary sample series:
// it either returns a waveform whose samples are finite with strictly
// increasing time, or rejects the series with ErrBadSamples — never panics,
// never admits NaN/Inf or non-monotone time into the geometric queries.
func FuzzWaveNew(f *testing.F) {
	f.Add(encodeSamples([]float64{0, 1e-9, 2e-9}, []float64{0, 0.6, 1.2}))          // valid rising edge
	f.Add(encodeSamples([]float64{0, 2e-9, 1e-9}, []float64{0, 1, 2}))              // non-monotone time
	f.Add(encodeSamples([]float64{0, 1e-9, 1e-9}, []float64{0, 1, 2}))              // duplicate time
	f.Add(encodeSamples([]float64{0, math.NaN()}, []float64{0, 1}))                 // NaN time
	f.Add(encodeSamples([]float64{0, 1e-9}, []float64{0, math.Inf(1)}))             // Inf voltage
	f.Add(encodeSamples([]float64{3e-9}, []float64{0.7}))                           // single sample
	f.Add(encodeSamples([]float64{0, 1e-9}, []float64{math.Inf(-1), math.NaN()}))   // all bad voltages
	f.Add(encodeSamples([]float64{-1e-9, 0, 5e-10}, []float64{1.2, math.NaN(), 0})) // NaN mid-series

	f.Fuzz(func(t *testing.T, data []byte) {
		ts, vs := decodeSamples(data)
		w, err := New(ts, vs)
		if err != nil {
			if !errors.Is(err, ErrBadSamples) {
				t.Fatalf("New rejected samples with %v, not ErrBadSamples", err)
			}
			return
		}
		// Accepted: every sample finite, time strictly increasing.
		for i := range w.T {
			if math.IsNaN(w.T[i]) || math.IsInf(w.T[i], 0) || math.IsNaN(w.V[i]) || math.IsInf(w.V[i], 0) {
				t.Fatalf("New admitted non-finite sample %d: (%g, %g)", i, w.T[i], w.V[i])
			}
			if i > 0 && !(w.T[i] > w.T[i-1]) {
				t.Fatalf("New admitted non-increasing time t[%d]=%g t[%d]=%g", i-1, w.T[i-1], i, w.T[i])
			}
		}
		// The basic queries must hold up on anything the constructor accepts.
		if got := w.At(w.Start()); math.IsNaN(got) {
			t.Fatalf("At(Start) = NaN on finite samples")
		}
		if w.MinV() > w.MaxV() {
			t.Fatalf("MinV %g > MaxV %g", w.MinV(), w.MaxV())
		}
		_ = w.EdgeDir()
		_ = w.String()
	})
}

// FuzzCrossings checks the crossing scan on arbitrary accepted waveforms:
// crossings are finite, sorted, inside the sampled span, and consistent with
// FirstCrossing/LastCrossing. Magnitudes are bounded to the
// physically meaningful range — circuit times and voltages — so the
// properties are exact rather than weakened for float overflow at ±1e308.
func FuzzCrossings(f *testing.F) {
	f.Add(encodeSamples([]float64{0, 1e-9, 2e-9, 3e-9}, []float64{0, 1.2, 0.3, 1.2}), 0.6) // noisy edge
	f.Add(encodeSamples([]float64{0, 1e-9}, []float64{0.5, 0.5}), 0.5)                     // flat on level
	f.Add(encodeSamples([]float64{1e-9}, []float64{0.5}), 0.5)                             // single sample on level
	f.Add(encodeSamples([]float64{0, 1e-9, 2e-9}, []float64{0, 1, 0}), 1.0)                // touch at peak
	f.Add(encodeSamples([]float64{0, 1e-9}, []float64{0, 1.2}), 2.0)                       // never reached

	f.Fuzz(func(t *testing.T, data []byte, level float64) {
		ts, vs := decodeSamples(data)
		w, err := New(ts, vs)
		if err != nil {
			t.Skip("constructor rejected the series; covered by FuzzWaveNew")
		}
		if math.Abs(level) > 1e12 {
			t.Skip("level outside the physical voltage range")
		}
		for i := range w.T {
			if math.Abs(w.T[i]) > 1e12 || math.Abs(w.V[i]) > 1e12 {
				t.Skip("samples outside the physical range")
			}
		}
		c := w.Crossings(level)
		if !sort.Float64sAreSorted(c) {
			t.Fatalf("Crossings(%g) not sorted: %v", level, c)
		}
		span := w.End() - w.Start()
		tol := 1e-12 * (span + math.Abs(w.Start()))
		for _, x := range c {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("Crossings(%g) produced non-finite time %g", level, x)
			}
			if x < w.Start()-tol || x > w.End()+tol {
				t.Fatalf("crossing %g outside span [%g, %g]", x, w.Start(), w.End())
			}
		}
		first, errF := w.FirstCrossing(level)
		last, errL := w.LastCrossing(level)
		if len(c) == 0 {
			if !errors.Is(errF, ErrNoCrossing) || !errors.Is(errL, ErrNoCrossing) {
				t.Fatalf("no crossings but First/Last errors are %v / %v", errF, errL)
			}
			return
		}
		if errF != nil || errL != nil {
			t.Fatalf("crossings exist but First/Last errored: %v / %v", errF, errL)
		}
		if first != c[0] || last != c[len(c)-1] {
			t.Fatalf("First/Last (%g, %g) disagree with Crossings %v", first, last, c)
		}
	})
}
