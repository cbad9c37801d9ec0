package wave

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRampBasics(t *testing.T) {
	// v = 2t - 1 clamped to [0, 1]: crosses 0.5 at t=0.75, spans [0.5, 1].
	r := NewRamp(2, -1, 0, 1)
	if r.Edge() != Rising {
		t.Error("edge")
	}
	if got := r.At(0.75); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("At(0.75) = %g", got)
	}
	if got := r.At(-1); got != 0 {
		t.Errorf("clamp low = %g", got)
	}
	if got := r.At(5); got != 1 {
		t.Errorf("clamp high = %g", got)
	}
	arr, err := r.Arrival()
	if err != nil || math.Abs(arr-0.75) > 1e-12 {
		t.Errorf("Arrival = %g, %v", arr, err)
	}
	t0, t1, err := r.Span()
	if err != nil || math.Abs(t0-0.5) > 1e-12 || math.Abs(t1-1.0) > 1e-12 {
		t.Errorf("Span = [%g,%g], %v", t0, t1, err)
	}
	tt, err := r.TransitionTime()
	if err != nil || math.Abs(tt-0.4) > 1e-12 { // 0.8*1V / 2V/s
		t.Errorf("TransitionTime = %g, %v", tt, err)
	}
}

func TestRampFalling(t *testing.T) {
	r := NewRamp(-2, 2, 0, 1) // v = 2-2t: falls through 0.5 at t=0.75
	if r.Edge() != Falling {
		t.Error("edge")
	}
	arr, err := r.Arrival()
	if err != nil || math.Abs(arr-0.75) > 1e-12 {
		t.Errorf("Arrival = %g", arr)
	}
	tt, _ := r.TransitionTime()
	if tt <= 0 {
		t.Errorf("falling transition time must be positive: %g", tt)
	}
}

func TestRampFlat(t *testing.T) {
	r := NewRamp(0, 0.3, 0, 1)
	if _, err := r.Arrival(); err == nil {
		t.Error("flat ramp arrival accepted")
	}
	if _, _, err := r.Span(); err == nil {
		t.Error("flat ramp span accepted")
	}
	if _, err := r.TransitionTime(); err == nil {
		t.Error("flat ramp transition accepted")
	}
}

func TestRampThroughPoint(t *testing.T) {
	r := RampThroughPoint(4, 1.0, 0.5, 0, 1)
	if got := r.At(1.0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("does not pass through anchor: %g", got)
	}
}

func TestRampShifted(t *testing.T) {
	r := NewRamp(2, -1, 0, 1)
	s := r.Shifted(0.25)
	a0, _ := r.Arrival()
	a1, _ := s.Arrival()
	if math.Abs(a1-a0-0.25) > 1e-12 {
		t.Errorf("shift moved arrival by %g", a1-a0)
	}
}

func TestRampToWaveformAgrees(t *testing.T) {
	r := NewRamp(3, -0.5, 0, 1.2)
	w := r.ToWaveform(-1, 2, 301)
	f := func(x float64) bool {
		tt := math.Mod(math.Abs(x), 3) - 1
		return math.Abs(w.At(tt)-r.At(tt)) < 5e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRampRailNormalization(t *testing.T) {
	r := NewRamp(1, 0, 2, -1) // inverted rails get swapped
	if r.VLow != -1 || r.VHigh != 2 {
		t.Errorf("rails not normalized: [%g,%g]", r.VLow, r.VHigh)
	}
}

// TestRampTimeAtInverse: TimeAt and At are inverse within the linear span.
func TestRampTimeAtInverse(t *testing.T) {
	r := NewRamp(5, -2, 0, 1)
	f := func(x float64) bool {
		v := math.Mod(math.Abs(x), 1)
		tv, err := r.TimeAt(v)
		if err != nil {
			return false
		}
		return math.Abs(r.At(tv)-v) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
