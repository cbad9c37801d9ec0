package xtalk

import (
	"context"
	"math"
	"testing"

	"noisewave/internal/device"
	"noisewave/internal/wave"
)

func fastConfigI() Config {
	c := ConfigurationI(device.Default130())
	c.Step = 2e-12 // coarser for test speed
	return c
}

// TestNoiselessPropagation: with quiet aggressors the victim edge must
// propagate cleanly (monotone-ish input, full-swing inverted output).
func TestNoiselessPropagation(t *testing.T) {
	cfg := fastConfigI()
	in, out, err := cfg.RunNoiselessCtx(context.Background(), 0.3e-9)
	if err != nil {
		t.Fatalf("RunNoiselessCtx: %v", err)
	}
	vdd := cfg.Tech.Vdd
	if in.EdgeDir() != wave.Rising {
		t.Errorf("victim far-end edge = %v, want rising", in.EdgeDir())
	}
	if got := in.V[len(in.V)-1]; math.Abs(got-vdd) > 0.05 {
		t.Errorf("victim input settles at %.3f, want %.2f", got, vdd)
	}
	if got := out.V[len(out.V)-1]; got > 0.05 {
		t.Errorf("gate output settles at %.3f, want ~0 (inverted)", got)
	}
	// The noiseless input should cross 0.5Vdd exactly once.
	if n := len(in.Crossings(0.5 * vdd)); n != 1 {
		t.Errorf("noiseless input crosses 0.5Vdd %d times, want 1", n)
	}
	// Gate delay (50%-to-50%) should be positive and below 500 ps.
	tin, err := in.LastCrossing(0.5 * vdd)
	if err != nil {
		t.Fatal(err)
	}
	tout, err := out.LastCrossing(0.5 * vdd)
	if err != nil {
		t.Fatal(err)
	}
	d := tout - tin
	if d <= 0 || d > 500e-12 {
		t.Errorf("gate delay %.3g s implausible", d)
	}
	t.Logf("noiseless: far-end slew=%v gate delay=%.1f ps",
		mustSlew(t, in, vdd), d*1e12)
}

// TestNoisyInjection: an opposing aggressor aligned with the victim
// transition must visibly distort the victim far-end waveform and push the
// gate output arrival later than the noiseless case.
func TestNoisyInjection(t *testing.T) {
	cfg := fastConfigI()
	const vs = 0.3e-9
	vdd := cfg.Tech.Vdd

	inQ, outQ, err := cfg.RunNoiselessCtx(context.Background(), vs)
	if err != nil {
		t.Fatalf("RunNoiselessCtx: %v", err)
	}
	// Aggressor switching right on top of the victim transition.
	inN, outN, err := cfg.RunCtx(context.Background(), vs, []float64{vs + 0.1e-9})
	if err != nil {
		t.Fatalf("Run noisy: %v", err)
	}
	distortion := inN.MaxAbsDiff(inQ)
	if distortion < 0.05*vdd {
		t.Errorf("aggressor injection only distorts input by %.3f V — coupling too weak", distortion)
	}
	tQ, err := outQ.LastCrossing(0.5 * vdd)
	if err != nil {
		t.Fatal(err)
	}
	tN, err := outN.LastCrossing(0.5 * vdd)
	if err != nil {
		t.Fatal(err)
	}
	if tN <= tQ {
		t.Errorf("opposing aggressor should delay the output: noisy %.4g <= quiet %.4g", tN, tQ)
	}
	t.Logf("input distortion=%.3f V, output pushout=%.1f ps", distortion, (tN-tQ)*1e12)
}

// TestConfigurationIIBuilds: two aggressors, 500 µm lines.
func TestConfigurationII(t *testing.T) {
	cfg := ConfigurationII(device.Default130())
	cfg.Step = 2e-12
	const vs = 0.3e-9
	in, out, err := cfg.RunCtx(context.Background(), vs, []float64{vs, vs + 0.05e-9})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if in.Len() == 0 || out.Len() == 0 {
		t.Fatal("empty waveforms")
	}
	if got := out.V[len(out.V)-1]; got > 0.05 {
		t.Errorf("gate output settles at %.3f, want ~0", got)
	}
}

func mustSlew(t *testing.T, w *wave.Waveform, vdd float64) float64 {
	t.Helper()
	s, err := w.Slew(vdd, w.EdgeDir())
	if err != nil {
		t.Fatalf("slew: %v", err)
	}
	return s
}
