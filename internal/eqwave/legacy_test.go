package eqwave

import (
	"errors"
	"fmt"
	"math"

	"noisewave/internal/numeric"
	"noisewave/internal/wave"
)

// This file keeps a test-only copy of the conversions as they were before
// they read waveforms through wave.Sampler: ρ from whole-waveform
// Derivative and Monotonicized copies (each input slope evaluated twice),
// SGDP's δ-shift as a Shifted copy, the noiseless critical region measured
// by each consumer, and last crossings found by a forward scan.
// TestConversionsMatchLegacy holds the production techniques to it bit for
// bit.

// legacyLastCrossing is the forward scan: the last element of Crossings.
func legacyLastCrossing(w *wave.Waveform, level float64) (float64, error) {
	c := w.Crossings(level)
	if len(c) == 0 {
		return 0, fmt.Errorf("%w (level=%g)", wave.ErrNoCrossing, level)
	}
	return c[len(c)-1], nil
}

func legacyCriticalRegion(w *wave.Waveform, loLevel, hiLevel float64, dir wave.Edge) (float64, float64, error) {
	startLevel, endLevel := loLevel, hiLevel
	if dir == wave.Falling {
		startLevel, endLevel = hiLevel, loLevel
	}
	tFirst, err := w.FirstCrossing(startLevel)
	if err != nil {
		return 0, 0, err
	}
	tLast, err := legacyLastCrossing(w, endLevel)
	if err != nil {
		return 0, 0, err
	}
	if tLast < tFirst {
		tFirst, tLast = tLast, tFirst
	}
	return tFirst, tLast, nil
}

func legacySensitivity(nlIn, nlOut *wave.Waveform, vdd float64, edge wave.Edge, n int) (*Sensitivity, error) {
	if n < 128 {
		n = 128
	}
	tFirst, tLast, err := legacyCriticalRegion(nlIn, 0.1*vdd, 0.9*vdd, edge)
	if err != nil {
		return nil, err
	}
	if tLast <= tFirst {
		return nil, fmt.Errorf("empty noiseless critical region [%g,%g]", tFirst, tLast)
	}
	dIn := nlIn.Derivative()
	dOut := nlOut.Derivative()
	ts := uniformGrid(tFirst, tLast, n)
	vs := make([]float64, n)
	rho := make([]float64, n)
	peak := 0.0
	for _, t := range ts {
		if a := math.Abs(dIn.At(t)); a > peak {
			peak = a
		}
	}
	if peak == 0 {
		return nil, errors.New("input waveform is flat over its critical region")
	}
	guard := derivEps * peak
	mono := nlIn.Monotonicized(edge)
	maxRho := 0.0
	for i, t := range ts {
		vs[i] = mono.At(t)
		num := math.Abs(dOut.At(t))
		den := math.Abs(dIn.At(t))
		if den < guard {
			rho[i] = 0
			continue
		}
		rho[i] = math.Min(num/den, rhoCap)
		if rho[i] > maxRho {
			maxRho = rho[i]
		}
	}
	if maxRho < 1e-6 {
		return nil, ErrNoSensitivity
	}
	s := &Sensitivity{TFirst: tFirst, TLast: tLast, T: ts, V: vs, Rho: rho, Edge: edge}
	s.DRhoDV = s.computeDRhoDV()
	return s, nil
}

func legacyOverlapping(nlIn, nlOut *wave.Waveform, vdd float64, inEdge, outEdge wave.Edge) (bool, float64, error) {
	inFirst, inLast, err := legacyCriticalRegion(nlIn, 0.1*vdd, 0.9*vdd, inEdge)
	if err != nil {
		return false, 0, err
	}
	outFirst, outLast, err := legacyCriticalRegion(nlOut, 0.1*vdd, 0.9*vdd, outEdge)
	if err != nil {
		return false, 0, err
	}
	tIn, err := legacyLastCrossing(nlIn, 0.5*vdd)
	if err != nil {
		return false, 0, err
	}
	tOut, err := legacyLastCrossing(nlOut, 0.5*vdd)
	if err != nil {
		return false, 0, err
	}
	return inFirst <= outLast && outFirst <= inLast, tOut - tIn, nil
}

// legacyEquivalent is tech's Γeff as the pre-sampler code computed it.
func legacyEquivalent(tech Technique, in Input) (wave.Ramp, error) {
	half := 0.5 * in.Vdd
	pointRamp := func(tt float64) (wave.Ramp, error) {
		t50, err := legacyLastCrossing(in.Noisy, half)
		if err != nil {
			return wave.Ramp{}, err
		}
		a, err := signedSlope(tt, in.Vdd, in.Edge)
		if err != nil {
			return wave.Ramp{}, err
		}
		return wave.RampThroughPoint(a, t50, half, 0, in.Vdd), nil
	}
	switch s := tech.(type) {
	case P1:
		t0, t1, err := legacyCriticalRegion(in.Noiseless, 0.1*in.Vdd, 0.9*in.Vdd, in.Edge)
		if err != nil {
			return wave.Ramp{}, err
		}
		return pointRamp(t1 - t0)
	case P2:
		t0, t1, err := legacyCriticalRegion(in.Noisy, 0.1*in.Vdd, 0.9*in.Vdd, in.Edge)
		if err != nil {
			return wave.Ramp{}, err
		}
		return pointRamp(t1 - t0)
	case LSF3:
		t0, t1, err := legacyCriticalRegion(in.Noisy, 0.1*in.Vdd, 0.9*in.Vdd, in.Edge)
		if err != nil {
			return wave.Ramp{}, err
		}
		ts := uniformGrid(t0, t1, in.samples())
		vs := make([]float64, len(ts))
		for i, t := range ts {
			vs[i] = in.Noisy.At(t)
		}
		a, b, err := numeric.LineFit(ts, vs)
		if err != nil {
			return wave.Ramp{}, err
		}
		return wave.NewRamp(a, b, 0, in.Vdd), nil
	case E4:
		t50First, err := in.Noisy.FirstCrossing(half)
		if err != nil {
			return wave.Ramp{}, err
		}
		t50Last, err := legacyLastCrossing(in.Noisy, half)
		if err != nil {
			return wave.Ramp{}, err
		}
		target := in.Vdd
		if in.Edge == wave.Falling {
			target = 0
		}
		clamped := func(t float64) float64 {
			v := in.Noisy.At(t)
			if in.Edge == wave.Rising {
				return math.Abs(target - math.Min(math.Max(v, half), in.Vdd))
			}
			return math.Abs(math.Max(math.Min(v, half), 0) - target)
		}
		area, prevT, prevV := 0.0, t50First, clamped(t50First)
		for _, t := range in.Noisy.T {
			if t <= t50First {
				continue
			}
			v := clamped(t)
			area += 0.5 * (prevV + v) * (t - prevT)
			prevT, prevV = t, v
		}
		if area <= 0 {
			return wave.Ramp{}, fmt.Errorf("degenerate area %g", area)
		}
		a := half * half / (2 * area)
		if in.Edge == wave.Falling {
			a = -a
		}
		return wave.RampThroughPoint(a, t50Last, half, 0, in.Vdd), nil
	case WLS5:
		sens, err := legacySensitivity(in.Noiseless, in.NoiselessOut, in.Vdd, in.Edge, 4*in.samples())
		if err != nil {
			return wave.Ramp{}, err
		}
		ts := uniformGrid(sens.TFirst, sens.TLast, in.samples())
		vs := make([]float64, len(ts))
		ws := make([]float64, len(ts))
		for i, t := range ts {
			vs[i] = in.Noisy.At(t)
			ws[i] = sens.RhoAtTime(t)
		}
		a, b, err := numeric.WeightedLineFit(ts, vs, ws)
		if err != nil {
			return wave.Ramp{}, err
		}
		return wave.NewRamp(a, b, 0, in.Vdd), nil
	case *SGDP:
		return s.legacyEquivalent(in)
	}
	return wave.Ramp{}, fmt.Errorf("no legacy copy of %s", tech.Name())
}

func (s *SGDP) legacyEquivalent(in Input) (wave.Ramp, error) {
	nlOut := in.NoiselessOut
	var delta float64
	if s.DeltaShift {
		overlap, d, err := legacyOverlapping(in.Noiseless, nlOut, in.Vdd, in.Edge, nlOut.EdgeDir())
		if err != nil {
			return wave.Ramp{}, err
		}
		if !overlap {
			delta = d
			nlOut = nlOut.Shifted(-delta)
		}
	}
	sens, err := legacySensitivity(in.Noiseless, nlOut, in.Vdd, in.Edge, 4*in.samples())
	if err != nil {
		return wave.Ramp{}, err
	}
	tFirst, tLast, err := legacyCriticalRegion(in.Noisy, 0.1*in.Vdd, 0.9*in.Vdd, in.Edge)
	if err != nil {
		return wave.Ramp{}, err
	}
	P := in.samples()
	ts := uniformGrid(tFirst, tLast, P)
	vs := make([]float64, P)
	rho := make([]float64, P)
	drho := make([]float64, P)
	for i, t := range ts {
		vs[i] = in.Noisy.At(t)
		if s.VoltageRemap {
			rho[i], drho[i] = sens.AtVoltage(vs[i])
		} else {
			rho[i] = sens.RhoAtTime(t)
			_, drho[i] = sens.AtVoltage(vs[i])
		}
	}
	t0, t1, err := legacyCriticalRegion(in.Noiseless, 0.1*in.Vdd, 0.9*in.Vdd, in.Edge)
	if err != nil {
		return wave.Ramp{}, err
	}
	nlTT := t1 - t0
	t50Last, err := legacyLastCrossing(in.Noisy, 0.5*in.Vdd)
	if err != nil {
		return wave.Ramp{}, err
	}
	degenerate := func(r wave.Ramp) bool {
		if s.collapsed(r, nlTT, in.Edge) {
			return true
		}
		arr, err := r.Arrival()
		if err != nil {
			return true
		}
		return arr < t50Last-0.5*nlTT || arr > t50Last+0.25*nlTT
	}
	ramp, err := s.fit(ts, vs, rho, drho, in)
	if err != nil {
		return wave.Ramp{}, err
	}
	if !s.NoSafeguard && degenerate(ramp) {
		rhoTD := make([]float64, P)
		for i, t := range ts {
			rhoTD[i] = sens.RhoAtTime(t)
		}
		ramp, err = s.fit(ts, vs, rhoTD, drho, in)
		if err != nil || degenerate(ramp) {
			ramp, err = legacyEquivalent(WLS5{}, in)
			if err != nil || degenerate(ramp) {
				ramp, err = legacyEquivalent(P2{}, in)
				if err != nil {
					return wave.Ramp{}, err
				}
			}
		}
	}
	if delta != 0 && s.ShiftGammaForward {
		ramp = ramp.Shifted(delta)
	}
	return ramp, nil
}
