package noise

import (
	"errors"
	"math"
	"testing"

	"noisewave/internal/core"
	"noisewave/internal/device"
	"noisewave/internal/wave"
	"noisewave/internal/xtalk"
)

// bump builds a Gaussian glitch waveform around a baseline.
func bump(base, amp, center, width float64) *wave.Waveform {
	return wave.FromFunc(func(t float64) float64 {
		return base + amp*math.Exp(-((t-center)/width)*((t-center)/width))
	}, 0, 2e-9, 2000)
}

func TestAnalyzeGaussianBump(t *testing.T) {
	g, err := Analyze(bump(0, 0.4, 1e-9, 50e-12))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Peak-0.4) > 0.01 {
		t.Errorf("peak = %g", g.Peak)
	}
	if math.Abs(g.PeakTime-1e-9) > 5e-12 {
		t.Errorf("peak time = %g", g.PeakTime)
	}
	// Gaussian full width at half maximum = 2·width·sqrt(ln 2).
	fwhm := 2 * 50e-12 * math.Sqrt(math.Ln2)
	if math.Abs(g.Width-fwhm) > 0.1*fwhm {
		t.Errorf("width = %g, want ≈ %g", g.Width, fwhm)
	}
	// Gaussian area = amp·width·sqrt(pi).
	wantArea := 0.4 * 50e-12 * math.Sqrt(math.Pi)
	if math.Abs(g.Area-wantArea) > 0.05*wantArea {
		t.Errorf("area = %g, want ≈ %g", g.Area, wantArea)
	}
}

func TestAnalyzeUndershoot(t *testing.T) {
	g, err := Analyze(bump(1.2, -0.3, 0.8e-9, 40e-12))
	if err != nil {
		t.Fatal(err)
	}
	if g.Baseline != 1.2 {
		t.Errorf("baseline = %g", g.Baseline)
	}
	if math.Abs(g.Peak+0.3) > 0.01 {
		t.Errorf("peak = %g, want ≈ -0.3", g.Peak)
	}
}

func TestAnalyzeQuiet(t *testing.T) {
	flat := wave.FromFunc(func(float64) float64 { return 0.6 }, 0, 1e-9, 100)
	if _, err := Analyze(flat); !errors.Is(err, ErrNoGlitch) {
		t.Errorf("flat waveform: err = %v", err)
	}
}

// TestCouplingGlitchGrowsWithCoupling uses the real testbench: a quiet
// victim picks up a glitch whose peak grows with the coupling capacitance.
func TestCouplingGlitchGrowsWithCoupling(t *testing.T) {
	tech := device.Default130()
	var prevPeak float64
	for i, cc := range []float64{20e-15, 100e-15} {
		cfg := xtalk.ConfigurationI(tech)
		cfg.Step = 2e-12
		cfg.CouplingTotal = cc
		in, _, err := cfg.RunQuietVictim([]float64{0.3e-9})
		if err != nil {
			t.Fatalf("RunQuietVictim: %v", err)
		}
		g, err := Analyze(in)
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		t.Logf("coupling %.0f fF: %v", cc*1e15, g)
		// Victim rests low... for a rising-victim config the quiet level is
		// low and a falling aggressor couples a NEGATIVE glitch.
		if g.Peak >= 0 {
			t.Errorf("coupling %g: expected negative glitch, got %+v", cc, g)
		}
		if i > 0 && math.Abs(g.Peak) <= math.Abs(prevPeak) {
			t.Errorf("glitch did not grow with coupling: %g vs %g", g.Peak, prevPeak)
		}
		prevPeak = g.Peak
	}
}

// TestGlitchPropagationAttenuation: a small glitch must be attenuated by
// the receiver chain (noise rejection), far below the failure threshold.
func TestGlitchPropagationAttenuation(t *testing.T) {
	tech := device.Default130()
	cfg := xtalk.ConfigurationI(tech)
	cfg.Step = 2e-12
	cfg.CouplingTotal = 30e-15 // weak coupling → small glitch
	in, _, err := cfg.RunQuietVictim([]float64{0.3e-9})
	if err != nil {
		t.Fatal(err)
	}
	gate := core.NewInverterChainSim(tech, []float64{4, 16}, cfg.Step)
	res, err := Propagate(gate, in, 0.5*tech.Vdd)
	if err != nil {
		t.Fatalf("Propagate: %v", err)
	}
	t.Logf("in %v -> out %v (gain %.2f)", res.Input, res.Output, res.Gain)
	if res.Propagates {
		t.Error("a small glitch should not propagate as a failure")
	}
	if res.Gain > 1.0 {
		t.Errorf("receiver amplified a sub-threshold glitch: gain %.2f", res.Gain)
	}
}
