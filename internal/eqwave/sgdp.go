package eqwave

import (
	"fmt"
	"math"

	"noisewave/internal/numeric"
	"noisewave/internal/wave"
)

// SGDP is the paper's sensitivity-based gate delay propagation (§3).
//
// Step 1 computes ρ_noiseless exactly as WLS5 does. Step 2 remaps ρ onto
// the *noisy* critical region through the voltage domain: at each sample
// time t_i of the noisy region, ρ_eff(t_i) is the noiseless ρ at the time
// the noiseless input passes the same voltage level. Noise distortion is
// therefore weighted wherever it occurs, not only inside the noiseless
// window. Step 3 fits Γeff = a·t + b by minimizing the second-order Taylor
// approximation of the output error (Eq. 3):
//
//	Σ_k [ ρ_eff(t_k)·r_k + ½·(∂ρ/∂v)(t_k)·r_k² ]²,  r_k = a·t_k + b − v^noisy(t_k)
//
// solved by damped Gauss–Newton seeded with the first-order (weighted
// least-squares) solution.
//
// Slope-collapse safeguard: when an input stalls for a long time at a
// voltage level inside the gate's switching band (a crosstalk "sag"), the
// voltage remap assigns that level's large ρ to every revisiting sample,
// the weighted abscissae become nearly collinear at constant voltage, and
// the literal Eq. 3 optimum degenerates toward a flat line (an unphysical
// Γeff slower than the whole transition). The implementation detects the
// collapse — fitted transition time far beyond the noiseless transition
// time — and refits with time-domain weights over the same noisy region,
// finally falling back to the WLS5 fit. See DESIGN.md §5 and the ablation
// benches.
//
// For non-overlapping input/output transitions SGDP shifts the noiseless
// output back by δ (the distance between the 0.5·Vdd crossings) before
// Steps 1–3, restoring a meaningful ρ — the paper's pre/post-processing
// step for multi-stage or heavily loaded gates.
type SGDP struct {
	// SecondOrder enables the ½·(∂ρ/∂v)·r² term of Eq. 3. Disabling it
	// reduces Step 3 to a weighted least-squares fit over ρ_eff (ablation).
	SecondOrder bool
	// VoltageRemap enables Step 2. Disabling it falls back to the
	// time-domain ρ of WLS5 while keeping the Eq. 3 objective (ablation).
	VoltageRemap bool
	// DeltaShift enables the non-overlap pre/post-processing.
	DeltaShift bool
	// ShiftGammaForward additionally shifts the fitted Γeff forward by δ
	// after a δ-shifted fit, following the paper's literal description.
	// The default keeps Γeff in the input time frame (see EXPERIMENTS.md
	// ablation A3 for the comparison).
	ShiftGammaForward bool
	// NoSafeguard disables the slope-collapse fallback (ablation).
	NoSafeguard bool
}

// gaussNewtonIters bounds the Eq. 3 iteration.
const gaussNewtonIters = 20

// collapseFactor is the safeguard threshold: a fit whose 10–90% transition
// time exceeds collapseFactor × the noiseless transition time is
// considered collapsed.
const collapseFactor = 2.5

// NewSGDP returns SGDP with the paper's full feature set enabled.
func NewSGDP() *SGDP {
	return &SGDP{
		SecondOrder:  true,
		VoltageRemap: true,
		DeltaShift:   true,
	}
}

// Name implements Technique.
func (s *SGDP) Name() string { return "SGDP" }

// Equivalent implements Technique.
func (s *SGDP) Equivalent(in Input) (wave.Ramp, error) {
	if err := in.validate(true, true); err != nil {
		return wave.Ramp{}, err
	}
	// The noiseless input's 10–90% region serves the overlap test, the
	// sensitivity grid and the noiseless slew below.
	nlFirst, nlLast, err := in.Noiseless.CriticalRegion(0.1*in.Vdd, 0.9*in.Vdd, in.Edge)
	if err != nil {
		return wave.Ramp{}, fmt.Errorf("SGDP: noiseless critical region: %w", err)
	}
	nlOut := in.NoiselessOut
	var delta float64
	if s.DeltaShift {
		overlap, d, err := overlapping(in.Noiseless, nlOut, in.Vdd, nlFirst, nlLast, nlOut.EdgeDir())
		if err != nil {
			return wave.Ramp{}, fmt.Errorf("SGDP: %w", err)
		}
		if !overlap {
			delta = d
		}
	}
	// Step 1: ρ of the noiseless pair, the output shifted back by δ.
	sens, err := sensitivityOver(in.Noiseless, nlOut, -delta, in.Edge, 4*in.samples(), nlFirst, nlLast)
	if err != nil {
		return wave.Ramp{}, fmt.Errorf("SGDP: %w", err)
	}
	// Step 2: sample the noisy critical region and attach remapped weights.
	tFirst, tLast, err := in.Noisy.CriticalRegion(0.1*in.Vdd, 0.9*in.Vdd, in.Edge)
	if err != nil {
		return wave.Ramp{}, fmt.Errorf("SGDP: noisy critical region: %w", err)
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
			_, drho[i] = sens.AtVoltage(vs[i]) // second-order term still needs dρ/dv
		}
	}
	nlTT := nlLast - nlFirst // the noiseless slew
	// Plausibility bounds for the fitted arrival. The reference delay is
	// measured at the *latest* 0.5·Vdd crossings (§4.1), so a usable Γeff
	// must cross 0.5·Vdd in the neighbourhood of the noisy waveform's own
	// final crossing: an equivalent waveform arriving half a transition
	// earlier has latched onto an earlier partial rise (a deep multi-
	// crossing dip) that the receiving gate did not commit to, and one
	// arriving later was captured by revisited voltage levels after the
	// transition completed.
	half := 0.5 * in.Vdd
	t50Last, err := in.Noisy.LastCrossing(half)
	if err != nil {
		return wave.Ramp{}, fmt.Errorf("SGDP: %w", err)
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

	// Step 3 with the remapped weights.
	ramp, err := s.fit(ts, vs, rho, drho, in)
	if err != nil {
		return wave.Ramp{}, err
	}
	if !s.NoSafeguard && degenerate(ramp) {
		// Refit with time-domain weights over the same (noisy) region.
		rhoTD := make([]float64, P)
		for i, t := range ts {
			rhoTD[i] = sens.RhoAtTime(t)
		}
		ramp, err = s.fit(ts, vs, rhoTD, drho, in)
		if err != nil || degenerate(ramp) {
			// Next fallback: the WLS5 fit (noiseless region, first order).
			ramp, err = (WLS5{}).Equivalent(in)
			if err != nil || degenerate(ramp) {
				// Deeply non-monotonic inputs (e.g. several coincident
				// aggressors reversing the edge mid-transition) can defeat
				// every least-squares fit; anchor at the latest 0.5·Vdd
				// crossing with the noisy-region slew instead (P2), which
				// is always well defined.
				ramp, err = (P2{}).Equivalent(in)
				if err != nil {
					return wave.Ramp{}, fmt.Errorf("SGDP: all fits degenerate: %w", err)
				}
			}
		}
	}
	if delta != 0 && s.ShiftGammaForward {
		ramp = ramp.Shifted(delta)
	}
	return ramp, nil
}

// fit performs the Eq. 3 fit: weighted least-squares seed, then optional
// Gauss–Newton refinement of the second-order objective.
func (s *SGDP) fit(ts, vs, rho, drho []float64, in Input) (wave.Ramp, error) {
	a0, b0, err := numeric.WeightedLineFit(ts, vs, rho)
	if err != nil {
		// Degenerate weights (e.g. remap collapses to zero): fall back to
		// an unweighted fit of the noisy region.
		a0, b0, err = numeric.LineFit(ts, vs)
		if err != nil {
			return wave.Ramp{}, fmt.Errorf("SGDP: %w", err)
		}
	}
	ramp := wave.NewRamp(a0, b0, 0, in.Vdd)
	if !s.SecondOrder {
		return ramp, nil
	}
	P := len(ts)
	p, ok := numeric.GaussNewton2([2]float64{a0, b0}, P,
		func(p [2]float64, resid []float64, jac [][2]float64) {
			for k := 0; k < P; k++ {
				r := p[0]*ts[k] + p[1] - vs[k]
				f, g := taylorResidual(rho[k], drho[k], r)
				resid[k] = f
				jac[k][0] = g * ts[k]
				jac[k][1] = g
			}
		}, gaussNewtonIters, 1e-12)
	if ok && s.withinTrustRegion(p, a0, b0, ts, in) {
		ramp = wave.NewRamp(p[0], p[1], 0, in.Vdd)
	}
	return ramp, nil
}

// withinTrustRegion accepts the Gauss–Newton refinement only while it stays
// a *refinement* of the first-order seed: same direction, slope within 2×
// either way, and arrival moved by at most 30% of the fitted region. The
// Taylor expansion behind Eq. 3 is local; a minimum far from the seed is
// outside its validity and empirically degrades the hardest noise cases
// (see the SGDP ablation benches).
func (s *SGDP) withinTrustRegion(p [2]float64, a0, b0 float64, ts []float64, in Input) bool {
	if !isUsableSlope(p[0], in.Edge) {
		return false
	}
	if r := p[0] / a0; r < 0.5 || r > 2.0 {
		return false
	}
	half := 0.5 * in.Vdd
	arrSeed := (half - b0) / a0
	arrGN := (half - p[1]) / p[0]
	width := ts[len(ts)-1] - ts[0]
	return math.Abs(arrGN-arrSeed) <= 0.3*width
}

// collapsed reports whether a fitted ramp is unphysically shallow or has
// the wrong direction.
func (s *SGDP) collapsed(r wave.Ramp, noiselessTT float64, edge wave.Edge) bool {
	if !isUsableSlope(r.A, edge) {
		return true
	}
	tt, err := r.TransitionTime()
	if err != nil {
		return true
	}
	return tt > collapseFactor*noiselessTT
}

// taylorResidual evaluates one Eq. 3 residual f(r) = ρ·r + ½·ρ'·r² and its
// derivative g = df/dr, with a monotone extension past the quadratic's
// extremum: the raw quadratic returns to zero at r = −2ρ/ρ', which would
// let the optimizer "cancel" a large fitting error with an invalid Taylor
// expansion. Beyond the extremum at r* = −ρ/ρ' the residual is frozen at
// its extremal value, keeping |f| non-decreasing in |r|.
func taylorResidual(rho, drho, r float64) (f, g float64) {
	if drho == 0 {
		return rho * r, rho
	}
	rStar := -rho / drho
	beyond := (drho > 0 && r < rStar) || (drho < 0 && r > rStar)
	if beyond {
		f = rho*rStar + 0.5*drho*rStar*rStar // = −ρ²/(2ρ')
		return f, 0
	}
	return rho*r + 0.5*drho*r*r, rho + drho*r
}

// isUsableSlope rejects fits whose slope direction contradicts the edge —
// a sign the Gauss–Newton landed in a degenerate minimum.
func isUsableSlope(a float64, edge wave.Edge) bool {
	if edge == wave.Rising {
		return a > 0
	}
	return a < 0
}
