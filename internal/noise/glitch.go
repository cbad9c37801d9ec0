// Package noise provides functional (glitch) noise analysis on quiet
// victims — the companion analysis to the delay-noise propagation the
// paper focuses on. It measures coupling glitches (peak, width, area),
// classifies them against noise-rejection thresholds, and propagates them
// through receiving gates with the transient simulator to decide whether a
// glitch is functionally dangerous.
package noise

import (
	"errors"
	"fmt"
	"math"

	"noisewave/internal/core"
	"noisewave/internal/wave"
)

// Glitch summarizes a noise bump on an otherwise quiet net.
type Glitch struct {
	// Baseline is the quiet level the net should hold (0 or Vdd).
	Baseline float64
	// Peak is the largest excursion from the baseline (signed: positive =
	// above baseline).
	Peak float64
	// PeakTime is when the peak occurs.
	PeakTime float64
	// Width is the time spent beyond half of the peak excursion.
	Width float64
	// Area is ∫ |v − baseline| dt over the record.
	Area float64
}

// ErrNoGlitch is returned when the waveform never leaves the baseline.
var ErrNoGlitch = errors.New("noise: waveform shows no excursion from baseline")

// Analyze measures the dominant glitch on a quiet-net waveform. The
// baseline is taken from the first sample (the DC state before any
// aggressor activity).
func Analyze(w *wave.Waveform) (Glitch, error) {
	if w == nil || w.Len() < 2 {
		return Glitch{}, errors.New("noise: empty waveform")
	}
	base := w.V[0]
	g := Glitch{Baseline: base}
	for i, v := range w.V {
		d := v - base
		if math.Abs(d) > math.Abs(g.Peak) {
			g.Peak = d
			g.PeakTime = w.T[i]
		}
	}
	if math.Abs(g.Peak) < 1e-9 {
		return g, ErrNoGlitch
	}
	// Width: total time with |v - base| above |peak|/2. Measured on the
	// excursion magnitude so both overshoot and undershoot work.
	half := math.Abs(g.Peak) / 2
	for i := 0; i+1 < w.Len(); i++ {
		d0 := math.Abs(w.V[i] - base)
		d1 := math.Abs(w.V[i+1] - base)
		dt := w.T[i+1] - w.T[i]
		switch {
		case d0 >= half && d1 >= half:
			g.Width += dt
		case d0 < half && d1 >= half:
			g.Width += dt * (d1 - half) / (d1 - d0)
		case d0 >= half && d1 < half:
			g.Width += dt * (d0 - half) / (d0 - d1)
		}
	}
	// Area of the excursion.
	for i := 0; i+1 < w.Len(); i++ {
		d0 := math.Abs(w.V[i] - base)
		d1 := math.Abs(w.V[i+1] - base)
		g.Area += 0.5 * (d0 + d1) * (w.T[i+1] - w.T[i])
	}
	return g, nil
}

// String renders the glitch summary.
func (g Glitch) String() string {
	return fmt.Sprintf("Glitch{peak=%+.3fV at %.3gns width=%.3gps area=%.3gV·ps}",
		g.Peak, g.PeakTime*1e9, g.Width*1e12, g.Area*1e12)
}

// PropagationResult reports how a glitch survives a receiving gate.
type PropagationResult struct {
	Input  Glitch
	Output Glitch
	// Gain is |output peak| / |input peak| — below 1 the receiver
	// attenuates the glitch (noise rejection), above 1 it amplifies
	// toward a functional failure.
	Gain float64
	// Propagates reports whether the output excursion exceeds the given
	// failure threshold.
	Propagates bool
}

// Propagate replays the glitch waveform into a receiving gate chain and
// measures the surviving output glitch. failThreshold is the output
// excursion (volts) beyond which the glitch is considered propagated
// (typically 0.5·Vdd for a hard failure).
func Propagate(gate *core.GateSim, glitchWave *wave.Waveform, failThreshold float64) (PropagationResult, error) {
	in, err := Analyze(glitchWave)
	if err != nil {
		return PropagationResult{}, fmt.Errorf("noise: input: %w", err)
	}
	out, err := gate.OutputForWave(glitchWave, glitchWave.Start(), glitchWave.End())
	if err != nil {
		return PropagationResult{}, fmt.Errorf("noise: gate evaluation: %w", err)
	}
	og, err := Analyze(out)
	if err != nil && !errors.Is(err, ErrNoGlitch) {
		return PropagationResult{}, err
	}
	res := PropagationResult{Input: in, Output: og}
	if in.Peak != 0 {
		res.Gain = math.Abs(og.Peak) / math.Abs(in.Peak)
	}
	res.Propagates = math.Abs(og.Peak) >= failThreshold
	return res, nil
}
