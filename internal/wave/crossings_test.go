package wave

import (
	"errors"
	"testing"
)

// TestCrossingsEmptyWaveform: a zero-sample waveform must report no
// crossings instead of indexing V[-1]. Zero-value Waveforms occur when a
// window or estimation step fails upstream; Crossings is on the hot path
// of every arrival measurement, so it must stay total.
func TestCrossingsEmptyWaveform(t *testing.T) {
	w := &Waveform{}
	if c := w.Crossings(0.5); len(c) != 0 {
		t.Errorf("empty waveform reported crossings: %v", c)
	}
	if _, err := w.FirstCrossing(0.5); !errors.Is(err, ErrNoCrossing) {
		t.Errorf("FirstCrossing on empty waveform: err = %v, want ErrNoCrossing", err)
	}
	if _, err := w.LastCrossing(0.5); !errors.Is(err, ErrNoCrossing) {
		t.Errorf("LastCrossing on empty waveform: err = %v, want ErrNoCrossing", err)
	}
}

// TestCrossingsSingleSample: one sample has no segments; it crosses the
// level only if it sits exactly on it.
func TestCrossingsSingleSample(t *testing.T) {
	w := MustNew([]float64{1e-9}, []float64{0.6})

	if c := w.Crossings(0.6); len(c) != 1 || c[0] != 1e-9 {
		t.Errorf("single sample on level: crossings = %v, want [1e-09]", c)
	}
	got, err := w.FirstCrossing(0.6)
	if err != nil || got != 1e-9 {
		t.Errorf("FirstCrossing = %v, %v; want 1e-09, nil", got, err)
	}

	if c := w.Crossings(0.3); len(c) != 0 {
		t.Errorf("single sample off level: crossings = %v, want none", c)
	}
	if _, err := w.LastCrossing(0.3); !errors.Is(err, ErrNoCrossing) {
		t.Errorf("LastCrossing off level: err = %v, want ErrNoCrossing", err)
	}
}

// TestLastCrossingPlateaus: the backward scan must apply the forward
// scan's plateau rule — a run of samples on the level counts once, at its
// first sample — so LastCrossing is the last element of Crossings on every
// placement of a plateau.
func TestLastCrossingPlateaus(t *testing.T) {
	ts := []float64{0, 1, 2, 3, 4, 5}
	for _, vs := range [][]float64{
		{0.5, 0.5, 0.5, 1, 1, 1}, // plateau at the start
		{0, 0.5, 0.5, 0.5, 1, 1}, // plateau in the middle
		{0, 0, 1, 0.5, 0.5, 0.5}, // plateau at the end
		{0, 1, 0.5, 1, 0.5, 0.5}, // touches, then a plateau at the end
		{1, 0.5, 1, 1, 0, 0.5},   // last sample alone on the level
		{0.5, 0.5, 0.5, 0.5, 0.5, 0.5},
		{0, 1, 0, 1, 0, 1}, // strict crossings only
	} {
		w := MustNew(ts, vs)
		c := w.Crossings(0.5)
		got, err := w.LastCrossing(0.5)
		if err != nil || got != c[len(c)-1] {
			t.Errorf("v=%v: LastCrossing = %v, %v; Crossings = %v", vs, got, err, c)
		}
	}
}
