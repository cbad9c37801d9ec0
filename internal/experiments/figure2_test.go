package experiments

import (
	"math"
	"testing"

	"noisewave/internal/device"
	"noisewave/internal/wave"
	"noisewave/internal/xtalk"
)

// TestFigure2Series validates the structure of the regenerated Figure 2:
// both panels populated, ρ series bounded and localized to the critical
// regions, and the proposed v_out^eff close to the reference noisy output
// around the switching window (the visual claim of Figure 2b).
func TestFigure2Series(t *testing.T) {
	cfg := xtalk.ConfigurationI(device.Default130())
	cfg.Step = 2e-12
	s, err := RunFigure2(cfg, Figure2Options{})
	if err != nil {
		t.Fatalf("RunFigure2: %v", err)
	}
	for name, w := range map[string]*wave.Waveform{
		"NoiselessIn": s.NoiselessIn, "NoiselessOut": s.NoiselessOut,
		"RhoNoiseless": s.RhoNoiseless, "NoisyIn": s.NoisyIn,
		"NoisyOut": s.NoisyOut, "RhoEff": s.RhoEff,
		"GammaWave": s.GammaWave, "EstOut": s.EstOut,
	} {
		if w == nil || w.Len() < 10 {
			t.Fatalf("series %s missing", name)
		}
	}
	// The 0.2-scaled ρ series must be non-negative and bounded.
	for _, rw := range []*wave.Waveform{s.RhoNoiseless, s.RhoEff} {
		if rw.MinV() < 0 {
			t.Errorf("scaled rho negative: %g", rw.MinV())
		}
		if rw.MaxV() > 0.2*100+1e-9 {
			t.Errorf("scaled rho exceeds cap: %g", rw.MaxV())
		}
	}
	// Γeff is a rising edge tracking the noisy input arrival.
	arrGamma, err := s.GammaEff.Arrival()
	if err != nil {
		t.Fatal(err)
	}
	arrNoisy, err := s.NoisyIn.LastCrossing(0.5 * cfg.Tech.Vdd)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(arrGamma-arrNoisy) > 100e-12 {
		t.Errorf("Γeff arrival %.1f ps vs noisy %.1f ps", arrGamma*1e12, arrNoisy*1e12)
	}
	// v_out^eff must reproduce the reference output arrival within the
	// Table 1 error scale.
	vdd := cfg.Tech.Vdd
	aEst, err := s.EstOut.LastCrossing(0.5 * vdd)
	if err != nil {
		t.Fatal(err)
	}
	aRef, err := s.NoisyOut.LastCrossing(0.5 * vdd)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(aEst-aRef) > 25e-12 {
		t.Errorf("v_out^eff arrival error %.1f ps", (aEst-aRef)*1e12)
	}
}

// TestFigure2EstOutSpansReference: v_out^eff is drawn against the
// reference noisy output, so its replay must run to the end of the
// reference record rather than stop once Γeff has settled.
func TestFigure2EstOutSpansReference(t *testing.T) {
	tech := device.Default130()
	for _, cfg := range []xtalk.Config{xtalk.ConfigurationI(tech), xtalk.ConfigurationII(tech)} {
		cfg.Step = 2e-12
		s, err := RunFigure2(cfg, Figure2Options{})
		if err != nil {
			t.Fatalf("config %s: RunFigure2: %v", cfg.Name, err)
		}
		if s.EstOut.End() != s.NoisyOut.End() {
			t.Errorf("config %s: v_out^eff ends at %g s, reference at %g s",
				cfg.Name, s.EstOut.End(), s.NoisyOut.End())
		}
	}
}

// TestRuntimeComparison reproduces the §4.2 structure: every technique has
// a per-gate time; the weighted techniques (WLS5, SGDP) cost more than the
// point-based ones but all stay in the sub-millisecond regime the paper
// reports (µs on 2005 hardware — we only check ordering and sanity).
func TestRuntimeComparison(t *testing.T) {
	cfg := xtalk.ConfigurationI(device.Default130())
	cfg.Step = 2e-12
	rows, err := RunRuntime(cfg, RuntimeOptions{P: 35})
	if err != nil {
		t.Fatalf("RunRuntime: %v", err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows: %d", len(rows))
	}
	times := map[string]float64{}
	for _, r := range rows {
		t.Logf("%-5s %v", r.Name, r.PerGate)
		if r.PerGate <= 0 {
			t.Errorf("%s: non-positive time", r.Name)
		}
		if r.PerGate.Seconds() > 50e-3 {
			t.Errorf("%s: per-gate fit took %v — implausibly slow", r.Name, r.PerGate)
		}
		times[r.Name] = r.PerGate.Seconds()
	}
	// The paper's qualitative run-time split: P1/P2 are cheaper than the
	// sensitivity-based SGDP (which must compute ρ and iterate).
	if times["SGDP"] < times["P1"] {
		t.Errorf("SGDP (%.3g s) should not be cheaper than P1 (%.3g s)", times["SGDP"], times["P1"])
	}
}

// TestPSweep checks the §4.2 trade-off machinery on a tiny sweep.
func TestPSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("P sweep is slow")
	}
	cfg := xtalk.ConfigurationI(device.Default130())
	cfg.Step = 2e-12
	rows, err := RunPSweep(cfg, []int{9, 35}, 6, SweepOptions{})
	if err != nil {
		t.Fatalf("RunPSweep: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("P=%-3d per-gate=%v avg|err|=%.2f ps", r.P, r.PerGate, r.AvgAbsErr*1e12)
		if r.AvgAbsErr <= 0 || r.AvgAbsErr > 150e-12 {
			t.Errorf("P=%d: avg err %.2g out of range", r.P, r.AvgAbsErr)
		}
	}
}

// TestAggressorOffsetCoverage: the decorrelated sweep must cover the window
// for every aggressor and produce differing pairings.
func TestAggressorOffsetCoverage(t *testing.T) {
	const cases = 50
	win := 1e-9
	seen0 := map[int]bool{}
	pairDiff := false
	for i := 0; i < cases; i++ {
		o0 := aggressorOffset(i, 0, cases, win)
		o1 := aggressorOffset(i, 1, cases, win)
		if o0 < -win/2-1e-15 || o0 > win/2+1e-15 {
			t.Fatalf("offset out of window: %g", o0)
		}
		seen0[int(math.Round((o0/win+0.5)*float64(cases-1)))] = true
		if math.Abs(o0-o1) > 1e-13 {
			pairDiff = true
		}
	}
	if len(seen0) != cases {
		t.Errorf("aggressor 0 visits %d distinct offsets, want %d", len(seen0), cases)
	}
	if !pairDiff {
		t.Error("aggressors never decorrelate")
	}
}
