package wave

import (
	"errors"
	"fmt"
)

// ErrNoCrossing is returned when a waveform never reaches the requested
// voltage level within its sampled span.
var ErrNoCrossing = errors.New("wave: waveform does not cross level")

// scanCrossings walks the crossings of level in increasing time order,
// calling yield for each; yield returning false stops the scan. A sample
// exactly on the level counts once; flat segments lying exactly on the
// level contribute their start point only. This is the allocation-free
// core shared by Crossings and FirstCrossing (LastCrossing runs the same
// rules backward): the first and last crossing of 0.5·Vdd
// are evaluated once per cached replay, so the arrival-time hot loop must
// not build a slice per call.
func (w *Waveform) scanCrossings(level float64, yield func(t float64) bool) {
	n := len(w.T)
	if n == 0 {
		return
	}
	prevOn := false
	for i := 0; i+1 < n; i++ {
		v0, v1 := w.V[i], w.V[i+1]
		switch {
		case v0 == level:
			if !prevOn && !yield(w.T[i]) {
				return
			}
			prevOn = true
		case strictlyCrosses(v0, v1, level):
			if !yield(w.segmentCrossing(i, level)) {
				return
			}
			prevOn = false
		default:
			prevOn = false
		}
	}
	if w.V[n-1] == level && !prevOn {
		yield(w.T[n-1])
	}
}

// strictlyCrosses reports whether a segment from v0 to v1 passes level
// with neither end on it.
func strictlyCrosses(v0, v1, level float64) bool {
	return (v0 < level && v1 > level) || (v0 > level && v1 < level)
}

// segmentCrossing interpolates the time segment i (samples i and i+1)
// passes level; the forward and backward scans share it.
func (w *Waveform) segmentCrossing(i int, level float64) float64 {
	v0, v1 := w.V[i], w.V[i+1]
	return w.T[i] + (level-v0)*(w.T[i+1]-w.T[i])/(v1-v0)
}

// Crossings returns every time at which the waveform crosses the given
// voltage level, in increasing order. An empty waveform has no crossings.
// Production code asks for the first or last crossing only; Crossings is
// the full list FuzzCrossings and the crossing tests check those against,
// and the crossing rule of the eqwave reference fits (legacy_test.go).
func (w *Waveform) Crossings(level float64) []float64 {
	var out []float64
	w.scanCrossings(level, func(t float64) bool {
		out = append(out, t)
		return true
	})
	return out
}

// FirstCrossing returns the earliest time the waveform reaches level. It
// stops scanning at the first hit and allocates nothing on success.
func (w *Waveform) FirstCrossing(level float64) (float64, error) {
	var first float64
	found := false
	w.scanCrossings(level, func(t float64) bool {
		first, found = t, true
		return false
	})
	if !found {
		return 0, fmt.Errorf("%w (level=%g, range [%g,%g])", ErrNoCrossing, level, w.MinV(), w.MaxV())
	}
	return first, nil
}

// LastCrossing returns the latest time the waveform reaches level: the
// last element of Crossings. It scans backward from the last sample and
// stops at the first crossing it meets, applying scanCrossings' plateau
// rule — a sample on the level counts only when its predecessor is off
// it — and allocates nothing on success.
func (w *Waveform) LastCrossing(level float64) (float64, error) {
	for i := len(w.T) - 1; i >= 0; i-- {
		if w.V[i] == level {
			if i == 0 || w.V[i-1] != level {
				return w.T[i], nil
			}
			continue
		}
		if i+1 < len(w.T) && strictlyCrosses(w.V[i], w.V[i+1], level) {
			return w.segmentCrossing(i, level), nil
		}
	}
	return 0, fmt.Errorf("%w (level=%g, range [%g,%g])", ErrNoCrossing, level, w.MinV(), w.MaxV())
}

// CriticalRegion returns the time window [tFirst, tLast] between the first
// crossing of loLevel and the last crossing of hiLevel for a rising edge;
// for a falling edge the roles are mirrored (first crossing of hiLevel to
// last crossing of loLevel). This is the paper's noisy critical region when
// applied to a noisy waveform and the noiseless critical region when
// applied to a noiseless one.
func (w *Waveform) CriticalRegion(loLevel, hiLevel float64, dir Edge) (tFirst, tLast float64, err error) {
	startLevel, endLevel := loLevel, hiLevel
	if dir == Falling {
		startLevel, endLevel = hiLevel, loLevel
	}
	tFirst, err = w.FirstCrossing(startLevel)
	if err != nil {
		return 0, 0, fmt.Errorf("critical region start: %w", err)
	}
	tLast, err = w.LastCrossing(endLevel)
	if err != nil {
		return 0, 0, fmt.Errorf("critical region end: %w", err)
	}
	if tLast < tFirst {
		// Heavily distorted waveforms can reach the end level before the
		// start level settles; widen to a valid window.
		tFirst, tLast = tLast, tFirst
	}
	return tFirst, tLast, nil
}

// Slew returns the 10%–90% transition time of the waveform measured against
// vdd: for a rising edge, last(0.9·vdd) − first(0.1·vdd); mirrored for a
// falling edge.
func (w *Waveform) Slew(vdd float64, dir Edge) (float64, error) {
	t0, t1, err := w.CriticalRegion(0.1*vdd, 0.9*vdd, dir)
	if err != nil {
		return 0, err
	}
	return t1 - t0, nil
}
