package eqwave

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"noisewave/internal/wave"
)

const vdd = 1.2

// rampWave samples a saturated rising ramp: 0 before t0, Vdd after
// t0 + full, linear in between (full = 0–100% time).
func rampWave(t0, full float64, edge wave.Edge) *wave.Waveform {
	f := func(t float64) float64 {
		u := (t - t0) / full
		if u < 0 {
			u = 0
		}
		if u > 1 {
			u = 1
		}
		if edge == wave.Falling {
			return vdd * (1 - u)
		}
		return vdd * u
	}
	return wave.FromFunc(f, 0, t0+full+1e-9, 1200)
}

// invOut models an inverting gate response to a ramp input: delayed,
// sharper, opposite edge.
func invOut(t0, full, delay, outFull float64, inEdge wave.Edge) *wave.Waveform {
	// Output midpoint = input midpoint + delay.
	mid := t0 + full/2 + delay
	o0 := mid - outFull/2
	f := func(t float64) float64 {
		u := (t - o0) / outFull
		if u < 0 {
			u = 0
		}
		if u > 1 {
			u = 1
		}
		if inEdge == wave.Rising {
			return vdd * (1 - u) // falling output
		}
		return vdd * u
	}
	return wave.FromFunc(f, 0, mid+outFull+1e-9, 1200)
}

// glitched adds a Gaussian bump to a waveform.
func glitched(w *wave.Waveform, center, width, amp float64) *wave.Waveform {
	out := w.Clone()
	for i, t := range out.T {
		out.V[i] += amp * math.Exp(-((t-center)/width)*((t-center)/width))
	}
	return out
}

// cleanInput builds the Input for a noise-free case (noisy == noiseless).
func cleanInput(edge wave.Edge) Input {
	in := rampWave(1e-9, 0.4e-9, edge)
	out := invOut(1e-9, 0.4e-9, 80e-12, 0.2e-9, edge)
	return Input{
		Noisy: in, Noiseless: in, NoiselessOut: out,
		Vdd: vdd, Edge: edge,
	}
}

// TestIdentityOnCleanRamp: with no noise, every technique must reproduce
// the input ramp's arrival closely; the slew-matching ones must also match
// its slope.
func TestIdentityOnCleanRamp(t *testing.T) {
	for _, edge := range []wave.Edge{wave.Rising, wave.Falling} {
		in := cleanInput(edge)
		wantArrival, err := in.Noisy.LastCrossing(0.5 * vdd)
		if err != nil {
			t.Fatal(err)
		}
		wantSlew, err := in.Noisy.Slew(vdd, edge)
		if err != nil {
			t.Fatal(err)
		}
		for _, tech := range All() {
			gamma, err := tech.Equivalent(in)
			if err != nil {
				t.Fatalf("%v %s: %v", edge, tech.Name(), err)
			}
			if gamma.Edge() != edge {
				t.Errorf("%v %s: wrong direction", edge, tech.Name())
			}
			arr, err := gamma.Arrival()
			if err != nil {
				t.Fatalf("%v %s: %v", edge, tech.Name(), err)
			}
			if math.Abs(arr-wantArrival) > 12e-12 {
				t.Errorf("%v %s: arrival %.1f ps, want %.1f ps",
					edge, tech.Name(), arr*1e12, wantArrival*1e12)
			}
			tt, _ := gamma.TransitionTime()
			if math.Abs(tt-wantSlew) > 0.30*wantSlew {
				t.Errorf("%v %s: transition %.1f ps, want ≈%.1f ps",
					edge, tech.Name(), tt*1e12, wantSlew*1e12)
			}
		}
	}
}

func TestP1UsesNoiselessSlew(t *testing.T) {
	in := cleanInput(wave.Rising)
	// Distort the noisy waveform's slew without moving its 50% point: P1
	// must keep the noiseless slew, P2 must see the distorted one.
	in.Noisy = rampWave(1.05e-9, 0.3e-9, wave.Rising) // faster and shifted
	g1, err := (P1{}).Equivalent(in)
	if err != nil {
		t.Fatal(err)
	}
	tt1, _ := g1.TransitionTime()
	wantNl, _ := in.Noiseless.Slew(vdd, wave.Rising)
	if math.Abs(tt1-wantNl) > 2e-12 {
		t.Errorf("P1 transition %.1f ps, want noiseless %.1f ps", tt1*1e12, wantNl*1e12)
	}
	g2, err := (P2{}).Equivalent(in)
	if err != nil {
		t.Fatal(err)
	}
	tt2, _ := g2.TransitionTime()
	wantNoisy, _ := in.Noisy.Slew(vdd, wave.Rising)
	if math.Abs(tt2-wantNoisy) > 2e-12 {
		t.Errorf("P2 transition %.1f ps, want noisy %.1f ps", tt2*1e12, wantNoisy*1e12)
	}
	// Both anchor at the latest noisy 0.5·Vdd crossing.
	want50, _ := in.Noisy.LastCrossing(0.5 * vdd)
	for name, g := range map[string]wave.Ramp{"P1": g1, "P2": g2} {
		arr, _ := g.Arrival()
		if math.Abs(arr-want50) > 1e-12 {
			t.Errorf("%s arrival %.2f ps, want %.2f ps", name, arr*1e12, want50*1e12)
		}
	}
}

func TestE4AreaEquivalence(t *testing.T) {
	// For a clean linear ramp the E4 construction is exact: the area
	// between the ramp and Vdd above 0.5·Vdd equals the triangle formula,
	// so the fitted slope equals the ramp slope.
	in := cleanInput(wave.Rising)
	g, err := (E4{}).Equivalent(in)
	if err != nil {
		t.Fatal(err)
	}
	wantSlope := vdd / 0.4e-9
	if math.Abs(g.A-wantSlope) > 0.05*wantSlope {
		t.Errorf("E4 slope %g, want %g", g.A, wantSlope)
	}
}

func TestE4PessimismWithDips(t *testing.T) {
	// A dip after the 50% crossing adds area and must flatten the E4 slope
	// (the paper's stated pessimism mechanism).
	in := cleanInput(wave.Rising)
	clean, err := (E4{}).Equivalent(in)
	if err != nil {
		t.Fatal(err)
	}
	in.Noisy = glitched(in.Noisy, 1.35e-9, 40e-12, -0.35)
	dipped, err := (E4{}).Equivalent(in)
	if err != nil {
		t.Fatal(err)
	}
	if dipped.A >= clean.A {
		t.Errorf("dip should flatten E4: %g >= %g", dipped.A, clean.A)
	}
}

func TestLSF3MatchesUnweightedFit(t *testing.T) {
	// On a pure ramp (no saturation inside the critical region), the LS
	// fit reproduces the ramp exactly.
	in := cleanInput(wave.Rising)
	g, err := (LSF3{}).Equivalent(in)
	if err != nil {
		t.Fatal(err)
	}
	wantSlope := vdd / 0.4e-9
	if math.Abs(g.A-wantSlope) > 0.02*wantSlope {
		t.Errorf("LSF3 slope %g, want %g", g.A, wantSlope)
	}
}

func TestSensitivityKnownRatio(t *testing.T) {
	// Output = inverted input with 2x the slope, transitioning exactly
	// when the input does: |dVout/dVin| = 2 in the overlap.
	in := rampWave(1e-9, 0.4e-9, wave.Rising)
	out := invOut(1e-9, 0.4e-9, 0, 0.2e-9, wave.Rising)
	s, err := ComputeSensitivity(in, out, vdd, wave.Rising, 256)
	if err != nil {
		t.Fatal(err)
	}
	// At mid region (input 0.5·Vdd) both are slewing: ratio = (vdd/0.2n) /
	// (vdd/0.4n) = 2.
	rho := s.RhoAtTime(1.2e-9)
	if math.Abs(rho-2) > 0.1 {
		t.Errorf("rho mid = %g, want 2", rho)
	}
	// Outside the critical region, zero.
	if s.RhoAtTime(0.5e-9) != 0 || s.RhoAtTime(2.5e-9) != 0 {
		t.Error("rho must vanish outside the critical region")
	}
}

func TestSensitivityVoltageRemapBounds(t *testing.T) {
	in := rampWave(1e-9, 0.4e-9, wave.Rising)
	out := invOut(1e-9, 0.4e-9, 50e-12, 0.2e-9, wave.Rising)
	s, err := ComputeSensitivity(in, out, vdd, wave.Rising, 256)
	if err != nil {
		t.Fatal(err)
	}
	// No match exists outside ≈[0.1,0.9]·Vdd: remap must return zero.
	if r, _ := s.AtVoltage(0.02 * vdd); r != 0 {
		t.Errorf("rho below range = %g", r)
	}
	if r, _ := s.AtVoltage(0.99 * vdd); r != 0 {
		t.Errorf("rho above range = %g", r)
	}
	// Inside, finite and non-negative.
	for _, v := range []float64{0.2, 0.4, 0.6, 0.8} {
		r, _ := s.AtVoltage(v * vdd)
		if r < 0 || math.IsNaN(r) || r > rhoCap {
			t.Errorf("rho(%g·Vdd) = %g", v, r)
		}
	}
}

func TestWLS5RequiresOverlap(t *testing.T) {
	// Output transitioning 3 ns after the input: no overlap, ρ ≡ 0 inside
	// the input's critical region → WLS5 must fail with ErrNoSensitivity.
	in := cleanInput(wave.Rising)
	in.NoiselessOut = invOut(1e-9, 0.4e-9, 3e-9, 0.2e-9, wave.Rising)
	_, err := (WLS5{}).Equivalent(in)
	if !errors.Is(err, ErrNoSensitivity) {
		t.Errorf("WLS5 on non-overlapping transitions: err = %v", err)
	}
}

func TestSGDPDeltaShiftHandlesNonOverlap(t *testing.T) {
	// Same non-overlap case: SGDP's δ-shift pre-processing must recover.
	in := cleanInput(wave.Rising)
	in.NoiselessOut = invOut(1e-9, 0.4e-9, 3e-9, 0.2e-9, wave.Rising)
	g, err := NewSGDP().Equivalent(in)
	if err != nil {
		t.Fatalf("SGDP with δ-shift: %v", err)
	}
	arr, _ := g.Arrival()
	want, _ := in.Noisy.LastCrossing(0.5 * vdd)
	if math.Abs(arr-want) > 30e-12 {
		t.Errorf("SGDP arrival %.1f ps, want ≈%.1f ps", arr*1e12, want*1e12)
	}
	// Without the δ-shift it must fail like WLS5.
	noShift := NewSGDP()
	noShift.DeltaShift = false
	if _, err := noShift.Equivalent(in); err == nil {
		t.Error("SGDP without δ-shift accepted non-overlapping transitions")
	}
}

func TestSGDPSeesNoiseOutsideNoiselessWindow(t *testing.T) {
	// The paper's motivating case: noise DELAYS the edge so part of the
	// transition happens after the noiseless critical region. WLS5's
	// window-limited fit goes optimistic; SGDP's remapped weights follow
	// the noise. SGDP's arrival must sit closer to the noisy waveform's
	// true 50% crossing.
	nl := rampWave(1e-9, 0.4e-9, wave.Rising)
	out := invOut(1e-9, 0.4e-9, 80e-12, 0.2e-9, wave.Rising)
	noisy := rampWave(1.35e-9, 0.4e-9, wave.Rising) // edge delayed by 350 ps
	in := Input{Noisy: noisy, Noiseless: nl, NoiselessOut: out, Vdd: vdd, Edge: wave.Rising}

	trueArr, _ := noisy.LastCrossing(0.5 * vdd)
	gS, err := NewSGDP().Equivalent(in)
	if err != nil {
		t.Fatalf("SGDP: %v", err)
	}
	arrS, _ := gS.Arrival()
	gW, err := (WLS5{}).Equivalent(in)
	var errW float64 = math.Inf(1)
	if err == nil {
		arrW, _ := gW.Arrival()
		errW = math.Abs(arrW - trueArr)
	}
	errS := math.Abs(arrS - trueArr)
	if errS > 20e-12 {
		t.Errorf("SGDP arrival error %.1f ps on a delayed edge", errS*1e12)
	}
	if errS > errW {
		t.Errorf("SGDP (%.1f ps) should beat WLS5 (%.1f ps) on noise outside the noiseless window",
			errS*1e12, errW*1e12)
	}
}

func TestSGDPAblationFlags(t *testing.T) {
	in := cleanInput(wave.Rising)
	in.Noisy = glitched(in.Noisy, 1.2e-9, 30e-12, -0.2)
	variants := []*SGDP{
		NewSGDP(),
		{VoltageRemap: true, DeltaShift: true},                     // first-order only
		{SecondOrder: true, DeltaShift: true},                      // no remap
		{VoltageRemap: true, SecondOrder: true},                    // no δ-shift
		{VoltageRemap: true, SecondOrder: true, NoSafeguard: true}, // no fallback
	}
	for i, v := range variants {
		g, err := v.Equivalent(in)
		if err != nil {
			t.Errorf("variant %d: %v", i, err)
			continue
		}
		if g.Edge() != wave.Rising {
			t.Errorf("variant %d: wrong edge", i)
		}
		arr, err := g.Arrival()
		if err != nil || arr < 0.9e-9 || arr > 1.6e-9 {
			t.Errorf("variant %d: arrival %v %v", i, arr, err)
		}
	}
}

func TestTaylorResidualMonotone(t *testing.T) {
	// White-box property: |f| never decreases as |r| grows, for any
	// weight pair. This is the guard that stops Eq. 3 from "cancelling"
	// large errors with an invalid Taylor expansion.
	f := func(a, b, r1, r2 float64) bool {
		rho := math.Mod(math.Abs(a), 10)
		drho := math.Remainder(b, 50)
		x1 := math.Remainder(r1, 2)
		x2 := math.Remainder(r2, 2)
		if math.Abs(x1) > math.Abs(x2) {
			x1, x2 = x2, x1
		}
		if math.Signbit(x1) != math.Signbit(x2) {
			x1 = math.Copysign(x1, x2)
		}
		f1, _ := taylorResidual(rho, drho, x1)
		f2, _ := taylorResidual(rho, drho, x2)
		return math.Abs(f2) >= math.Abs(f1)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAllTechniquesFiniteUnderRandomGlitches(t *testing.T) {
	// Property: for random glitch placements/amplitudes on a rising edge,
	// every technique yields a finite rising ramp whose arrival lies in a
	// sane window around the transition.
	techs := All()
	f := func(a, b, c float64) bool {
		center := 1e-9 + math.Mod(math.Abs(a), 0.6e-9)
		width := 20e-12 + math.Mod(math.Abs(b), 60e-12)
		amp := math.Remainder(c, 0.4)
		in := cleanInput(wave.Rising)
		in.Noisy = glitched(in.Noisy, center, width, amp)
		for _, tech := range techs {
			g, err := tech.Equivalent(in)
			if err != nil {
				return false
			}
			arr, err := g.Arrival()
			if err != nil {
				return false
			}
			if math.IsNaN(arr) || arr < 0.5e-9 || arr > 2.5e-9 {
				return false
			}
			if g.Edge() != wave.Rising {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestInputValidation(t *testing.T) {
	if _, err := (P2{}).Equivalent(Input{Vdd: 1}); err == nil {
		t.Error("missing noisy accepted")
	}
	in := cleanInput(wave.Rising)
	in.Vdd = 0
	if _, err := (P2{}).Equivalent(in); err == nil {
		t.Error("zero vdd accepted")
	}
	in2 := cleanInput(wave.Rising)
	in2.NoiselessOut = nil
	if _, err := (WLS5{}).Equivalent(in2); err == nil {
		t.Error("WLS5 without noiseless output accepted")
	}
	if _, err := (LSF3{}).Equivalent(in2); err != nil {
		t.Errorf("LSF3 should not need the noiseless output: %v", err)
	}
}

func TestByNameAndAll(t *testing.T) {
	names := []string{"P1", "P2", "LSF3", "E4", "WLS5", "SGDP"}
	all := All()
	if len(all) != len(names) {
		t.Fatalf("All() returned %d techniques", len(all))
	}
	for i, n := range names {
		if all[i].Name() != n {
			t.Errorf("All()[%d] = %s, want %s", i, all[i].Name(), n)
		}
		tech, err := ByName(n)
		if err != nil || tech.Name() != n {
			t.Errorf("ByName(%s): %v", n, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestOverlapping(t *testing.T) {
	in := rampWave(1e-9, 0.4e-9, wave.Rising)
	near := invOut(1e-9, 0.4e-9, 50e-12, 0.2e-9, wave.Rising)
	far := invOut(1e-9, 0.4e-9, 3e-9, 0.2e-9, wave.Rising)
	inFirst, inLast, err := in.CriticalRegion(0.1*vdd, 0.9*vdd, wave.Rising)
	if err != nil {
		t.Fatal(err)
	}
	ov, delta, err := overlapping(in, near, vdd, inFirst, inLast, wave.Falling)
	if err != nil || !ov {
		t.Errorf("near output should overlap: %v %v", ov, err)
	}
	if math.Abs(delta-50e-12) > 5e-12 {
		t.Errorf("near delta = %g", delta)
	}
	ov, delta, err = overlapping(in, far, vdd, inFirst, inLast, wave.Falling)
	if err != nil || ov {
		t.Errorf("far output should not overlap: %v %v", ov, err)
	}
	if math.Abs(delta-3e-9) > 20e-12 {
		t.Errorf("far delta = %g", delta)
	}
}
