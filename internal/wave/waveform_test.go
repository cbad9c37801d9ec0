package wave

import (
	"math"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("empty waveform accepted")
	}
	if _, err := New([]float64{0, 1}, []float64{0}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := New([]float64{0, 1, 1}, []float64{0, 1, 2}); err == nil {
		t.Error("non-increasing time accepted")
	}
	if _, err := New([]float64{0, math.NaN()}, []float64{0, 1}); err == nil {
		t.Error("NaN time accepted")
	}
	if _, err := New([]float64{0, 1}, []float64{0, 1}); err != nil {
		t.Errorf("valid waveform rejected: %v", err)
	}
}

func TestAtInterpolatesAndClamps(t *testing.T) {
	w := MustNew([]float64{0, 1, 2}, []float64{0, 2, 0})
	cases := []struct{ t, want float64 }{
		{-5, 0}, {0, 0}, {0.5, 1}, {1, 2}, {1.25, 1.5}, {2, 0}, {10, 0},
	}
	for _, c := range cases {
		if got := w.At(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%g) = %g, want %g", c.t, got, c.want)
		}
	}
}

func TestAtExactSamplePoints(t *testing.T) {
	// Property: At(T[i]) == V[i] for all samples.
	w := MustNew([]float64{0, 0.1, 0.5, 0.50001, 3}, []float64{1, -1, 4, 2, 0})
	for i, ti := range w.T {
		if got := w.At(ti); got != w.V[i] {
			t.Errorf("At(T[%d]) = %g, want %g", i, got, w.V[i])
		}
	}
}

func TestEdgeDir(t *testing.T) {
	if MustNew([]float64{0, 1}, []float64{0, 1}).EdgeDir() != Rising {
		t.Error("rising not detected")
	}
	if MustNew([]float64{0, 1}, []float64{1, 0}).EdgeDir() != Falling {
		t.Error("falling not detected")
	}
	if Rising.Opposite() != Falling || Falling.Opposite() != Rising {
		t.Error("Opposite broken")
	}
}

func TestFromFunc(t *testing.T) {
	w := FromFunc(func(t float64) float64 { return 2 * t }, 0, 1, 11)
	if w.Len() != 11 {
		t.Fatalf("Len = %d", w.Len())
	}
	if math.Abs(w.At(0.35)-0.7) > 1e-12 {
		t.Errorf("At(0.35) = %g", w.At(0.35))
	}
}

func TestCrossings(t *testing.T) {
	// A waveform rising through 0.5 three times: rise-dip-rise.
	w := MustNew(
		[]float64{0, 1, 2, 3, 4},
		[]float64{0, 0.8, 0.3, 1.0, 1.0},
	)
	c := w.Crossings(0.5)
	if len(c) != 3 {
		t.Fatalf("crossings = %v, want 3 entries", c)
	}
	wantTimes := []float64{0.625, 1.6, 2.0 + 2.0/7.0}
	for i, want := range wantTimes {
		if math.Abs(c[i]-want) > 1e-9 {
			t.Errorf("crossing %d = %g, want %g", i, c[i], want)
		}
	}
	first, err := w.FirstCrossing(0.5)
	if err != nil || math.Abs(first-0.625) > 1e-9 {
		t.Errorf("FirstCrossing = %g, %v", first, err)
	}
	last, err := w.LastCrossing(0.5)
	if err != nil || math.Abs(last-wantTimes[2]) > 1e-9 {
		t.Errorf("LastCrossing = %g, %v", last, err)
	}
	if _, err := w.FirstCrossing(2.0); err == nil {
		t.Error("crossing above range accepted")
	}
	if len(w.Crossings(0.5)) != 3 {
		t.Error("crossing count wrong")
	}
}

func TestCrossingsExactSampleOnLevel(t *testing.T) {
	w := MustNew([]float64{0, 1, 2}, []float64{0, 0.5, 1})
	c := w.Crossings(0.5)
	if len(c) != 1 || c[0] != 1 {
		t.Errorf("sample exactly on level: %v", c)
	}
	// Flat segment on the level counts once.
	w2 := MustNew([]float64{0, 1, 2, 3}, []float64{0, 0.5, 0.5, 1})
	if c := w2.Crossings(0.5); len(c) != 1 {
		t.Errorf("flat-on-level crossings: %v", c)
	}
}

func TestCriticalRegion(t *testing.T) {
	vdd := 1.0
	w := MustNew([]float64{0, 1, 2}, []float64{0, 0.5, 1})
	tf, tl, err := w.CriticalRegion(0.1*vdd, 0.9*vdd, Rising)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tf-0.2) > 1e-9 || math.Abs(tl-1.8) > 1e-9 {
		t.Errorf("region [%g,%g], want [0.2,1.8]", tf, tl)
	}
	// Falling edge mirrors the roles.
	f := MustNew([]float64{0, 1, 2}, []float64{1, 0.5, 0})
	tf, tl, err = f.CriticalRegion(0.1*vdd, 0.9*vdd, Falling)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tf-0.2) > 1e-9 || math.Abs(tl-1.8) > 1e-9 {
		t.Errorf("falling region [%g,%g]", tf, tl)
	}
}

func TestSlew(t *testing.T) {
	w := MustNew([]float64{0, 1}, []float64{0, 1})
	s, err := w.Slew(1.0, Rising)
	if err != nil || math.Abs(s-0.8) > 1e-9 {
		t.Errorf("Slew = %g, %v (want 0.8)", s, err)
	}
}

func TestShifted(t *testing.T) {
	w := MustNew([]float64{0, 1}, []float64{0, 2})
	s := w.Shifted(0.5)
	if s.T[0] != 0.5 || s.T[1] != 1.5 {
		t.Errorf("Shifted times %v", s.T)
	}
	if w.T[0] != 0 {
		t.Error("Shifted mutated the original")
	}
}

func TestWindow(t *testing.T) {
	w := MustNew([]float64{0, 1, 2, 3}, []float64{0, 1, 2, 3})
	sub, err := w.Window(0.5, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Start() != 0.5 || sub.End() != 2.5 {
		t.Errorf("window span [%g,%g]", sub.Start(), sub.End())
	}
	if math.Abs(sub.At(1.7)-w.At(1.7)) > 1e-12 {
		t.Error("window changes values")
	}
	if _, err := w.Window(5, 6); err == nil {
		t.Error("out-of-span window accepted")
	}
	if _, err := w.Window(2, 1); err == nil {
		t.Error("inverted window accepted")
	}
}

func TestDerivativeLinear(t *testing.T) {
	// Property: the derivative of a linear function is its slope
	// everywhere, including non-uniform grids.
	w := MustNew([]float64{0, 0.5, 0.7, 2}, []float64{0, 1.5, 2.1, 6})
	d := w.Derivative()
	for i := range d.T {
		if math.Abs(d.V[i]-3) > 1e-9 {
			t.Errorf("derivative[%d] = %g, want 3", i, d.V[i])
		}
	}
}

func TestDerivativeQuadratic(t *testing.T) {
	w := FromFunc(func(t float64) float64 { return t * t }, 0, 1, 101)
	d := w.Derivative()
	for _, tc := range []float64{0.2, 0.5, 0.8} {
		if got := d.At(tc); math.Abs(got-2*tc) > 0.01 {
			t.Errorf("d(t²)/dt at %g = %g, want %g", tc, got, 2*tc)
		}
	}
}

func TestMonotonicized(t *testing.T) {
	w := MustNew([]float64{0, 1, 2, 3}, []float64{0, 0.8, 0.3, 1})
	m := w.Monotonicized(Rising)
	for i := 1; i < m.Len(); i++ {
		if m.V[i] < m.V[i-1] {
			t.Fatalf("not monotone at %d: %v", i, m.V)
		}
	}
	if m.V[2] != 0.8 {
		t.Errorf("cummax wrong: %v", m.V)
	}
	f := MustNew([]float64{0, 1, 2}, []float64{1, 0.2, 0.5})
	mf := f.Monotonicized(Falling)
	if mf.V[2] != 0.2 {
		t.Errorf("cummin wrong: %v", mf.V)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := MustNew([]float64{0, 1}, []float64{0, 1})
	b := MustNew([]float64{0, 0.5, 1}, []float64{0, 0.9, 1})
	got := a.MaxAbsDiff(b)
	if math.Abs(got-0.4) > 1e-12 {
		t.Errorf("MaxAbsDiff = %g, want 0.4", got)
	}
	if d := a.MaxAbsDiff(a); d != 0 {
		t.Errorf("self diff = %g", d)
	}
}

func TestMinMaxV(t *testing.T) {
	w := MustNew([]float64{0, 1, 2}, []float64{-0.3, 1.4, 0.2})
	if w.MinV() != -0.3 || w.MaxV() != 1.4 {
		t.Errorf("MinV/MaxV = %g/%g", w.MinV(), w.MaxV())
	}
}

func TestCloneIndependence(t *testing.T) {
	w := MustNew([]float64{0, 1}, []float64{0, 1})
	c := w.Clone()
	c.V[0] = 99
	if w.V[0] == 99 {
		t.Error("Clone shares storage")
	}
}
