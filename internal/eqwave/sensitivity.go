package eqwave

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"noisewave/internal/wave"
)

// Sensitivity is the sampled output-to-input derivative ρ of a gate for a
// noiseless transition (the paper's Eq. 1):
//
//	ρ(t) = |dv_out/dt| / |dv_in/dt|
//
// defined on the noiseless critical region (between the input's first
// 10% crossing and last 90% crossing) and zero outside. The magnitude is
// used: for an inverting gate dv_out/dv_in is negative, and the paper's
// Figure 2 plots ρ as a positive weight.
//
// The samples also carry the noiseless input voltage at each time, which is
// what enables SGDP's voltage-domain remap: ρ as a function of the input
// voltage level rather than of time.
type Sensitivity struct {
	TFirst, TLast float64 // noiseless critical region

	T   []float64 // sample times spanning [TFirst, TLast]
	V   []float64 // noiseless input voltage at T (monotonic in the edge direction)
	Rho []float64 // ρ at T

	// dRho/dV at T (chain rule: ρ'(t) / v'in(t)), used by the second-order
	// term of SGDP's Eq. 3.
	DRhoDV []float64

	Edge wave.Edge
}

// ErrNoSensitivity is returned when the output does not move inside the
// input's critical region (non-overlapping transitions — WLS5's failure
// mode, §2.4).
var ErrNoSensitivity = errors.New("eqwave: output-to-input derivative is zero over the critical region (non-overlapping transitions)")

// derivEps guards divisions by a vanishing input slope: input-slope samples
// below derivEps × (peak slope) are treated as zero. Near the edges of the
// critical region the input slope approaches zero while the output may
// still be slewing, which would otherwise produce unbounded ρ spikes.
const derivEps = 1e-3

// rhoCap bounds ρ against residual division spikes; a gate with a genuine
// small-signal gain above this in its switching region would be pathological
// for the fit weights anyway.
const rhoCap = 100.0

// ComputeSensitivity samples ρ over the noiseless critical region of the
// input with n points (n ≥ 2; values below 32 are raised to 128 for
// internal accuracy — the technique's own P only controls fit sampling).
func ComputeSensitivity(nlIn, nlOut *wave.Waveform, vdd float64, edge wave.Edge, n int) (*Sensitivity, error) {
	tFirst, tLast, err := nlIn.CriticalRegion(0.1*vdd, 0.9*vdd, edge)
	if err != nil {
		return nil, fmt.Errorf("eqwave: noiseless critical region: %w", err)
	}
	return sensitivityOver(nlIn, nlOut, 0, edge, n, tFirst, tLast)
}

// sensitivityOver is ComputeSensitivity over the already-measured critical
// region [tFirst, tLast] of nlIn, with nlOut read translated by outShift in
// time (SGDP's δ-shift). Both waveforms are read through samplers: no
// derivative, envelope or shifted copy is built, and each input slope is
// evaluated once per grid point.
func sensitivityOver(nlIn, nlOut *wave.Waveform, outShift float64, edge wave.Edge, n int, tFirst, tLast float64) (*Sensitivity, error) {
	if n < 128 {
		n = 128
	}
	if tLast <= tFirst {
		return nil, fmt.Errorf("eqwave: empty noiseless critical region [%g,%g]", tFirst, tLast)
	}
	ts := uniformGrid(tFirst, tLast, n)
	vs := make([]float64, n)
	rho := make([]float64, n)

	// One pass over the input reads its monotone envelope and stages the
	// input-slope magnitude in rho; the peak slope inside the region sets
	// the division guard.
	in := nlIn.Sampler(0, edge)
	peak := 0.0
	for i, t := range ts {
		vs[i] = in.Envelope(t)
		rho[i] = math.Abs(in.Slope(t))
		if rho[i] > peak {
			peak = rho[i]
		}
	}
	if peak == 0 {
		return nil, fmt.Errorf("eqwave: input waveform is flat over its critical region")
	}
	guard := derivEps * peak

	out := nlOut.Sampler(outShift, edge)
	maxRho := 0.0
	for i, t := range ts {
		den := rho[i]
		if den < guard {
			rho[i] = 0
			continue
		}
		rho[i] = math.Min(math.Abs(out.Slope(t))/den, rhoCap)
		if rho[i] > maxRho {
			maxRho = rho[i]
		}
	}
	if maxRho < 1e-6 {
		return nil, ErrNoSensitivity
	}
	s := &Sensitivity{
		TFirst: tFirst, TLast: tLast,
		T: ts, V: vs, Rho: rho,
		Edge: edge,
	}
	s.DRhoDV = s.computeDRhoDV()
	return s, nil
}

// computeDRhoDV differentiates ρ with respect to the input voltage by
// centered differences on the (monotonic) V grid.
func (s *Sensitivity) computeDRhoDV() []float64 {
	n := len(s.T)
	d := make([]float64, n)
	for i := range d {
		lo, hi := i-1, i+1
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		dv := s.V[hi] - s.V[lo]
		if math.Abs(dv) < 1e-12 {
			d[i] = 0
			continue
		}
		d[i] = (s.Rho[hi] - s.Rho[lo]) / dv
	}
	return d
}

// RhoAtTime returns ρ(t), zero outside the critical region (the region acts
// as a filter — WLS5's behaviour).
func (s *Sensitivity) RhoAtTime(t float64) float64 {
	if t < s.TFirst || t > s.TLast {
		return 0
	}
	i := sort.SearchFloat64s(s.T, t)
	if i == 0 {
		return s.Rho[0]
	}
	if i >= len(s.T) {
		return s.Rho[len(s.Rho)-1]
	}
	t0, t1 := s.T[i-1], s.T[i]
	if t1 == t0 {
		return s.Rho[i]
	}
	u := (t - t0) / (t1 - t0)
	return s.Rho[i-1] + u*(s.Rho[i]-s.Rho[i-1])
}

// AtVoltage returns ρ and dρ/dv at the input voltage level v — the
// voltage-domain remap of SGDP Step 2. Voltage levels outside the noiseless
// critical region's range (outside ≈[0.1·Vdd, 0.9·Vdd]) have no matching
// time t_j in the noiseless region, so the remapped sensitivity is zero
// there: a noisy sample sitting on a settled rail carries no weight.
func (s *Sensitivity) AtVoltage(v float64) (rho, dRhoDV float64) {
	// V is monotonic increasing for a rising edge, decreasing for falling.
	n := len(s.V)
	asc := s.Edge == wave.Rising
	// Binary search for the bracketing interval.
	lo, hi := 0, n-1
	if asc {
		if v < s.V[0] || v > s.V[n-1] {
			return 0, 0
		}
		if v == s.V[0] {
			return s.Rho[0], s.DRhoDV[0]
		}
		lo = sort.Search(n, func(i int) bool { return s.V[i] >= v }) - 1
	} else {
		if v > s.V[0] || v < s.V[n-1] {
			return 0, 0
		}
		if v == s.V[0] {
			return s.Rho[0], s.DRhoDV[0]
		}
		lo = sort.Search(n, func(i int) bool { return s.V[i] <= v }) - 1
	}
	hi = lo + 1
	dv := s.V[hi] - s.V[lo]
	if math.Abs(dv) < 1e-15 {
		return s.Rho[lo], s.DRhoDV[lo]
	}
	u := (v - s.V[lo]) / dv
	rho = s.Rho[lo] + u*(s.Rho[hi]-s.Rho[lo])
	dRhoDV = s.DRhoDV[lo] + u*(s.DRhoDV[hi]-s.DRhoDV[lo])
	return rho, dRhoDV
}

// overlapping is Overlapping given the input's critical region
// [inFirst, inLast].
func overlapping(nlIn, nlOut *wave.Waveform, vdd, inFirst, inLast float64, outEdge wave.Edge) (bool, float64, error) {
	outFirst, outLast, err := nlOut.CriticalRegion(0.1*vdd, 0.9*vdd, outEdge)
	if err != nil {
		return false, 0, err
	}
	overlap := inFirst <= outLast && outFirst <= inLast
	// δ aligns the 0.5·Vdd crossings of input and output.
	tIn, err := nlIn.LastCrossing(0.5 * vdd)
	if err != nil {
		return false, 0, err
	}
	tOut, err := nlOut.LastCrossing(0.5 * vdd)
	if err != nil {
		return false, 0, err
	}
	return overlap, tOut - tIn, nil
}
