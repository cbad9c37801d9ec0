package sta

import (
	"context"
	"math"
	"testing"

	"noisewave/internal/charlib"
	"noisewave/internal/device"
	"noisewave/internal/wave"
)

// TestLibraryReconstructedAnnotation runs the noise-aware mode with an
// annotation that carries ONLY the noisy waveform; the noiseless pair must
// be rebuilt from the characterized output waveforms in the library.
func TestLibraryReconstructedAnnotation(t *testing.T) {
	tech := device.Default130()
	opts := charlib.FastOptions()
	opts.WithWaves = true
	lib, err := charlib.Characterize(tech,
		[]device.Cell{device.Inverter(tech, 1), device.Inverter(tech, 4)}, opts)
	if err != nil {
		t.Fatalf("Characterize: %v", err)
	}

	d := mustParse(t, `
design recon
input a slew=150ps
output y
gate u1 INVX1 A=a Y=n1
gate u2 INVX4 A=n1 Y=y
`)
	timer := New(lib, d)
	base, err := timer.RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	// The propagated falling edge at n1 (input a rises → n1 falls).
	pt := base.Nets["n1"].Fall
	if !pt.Valid {
		t.Fatal("n1 fall not timed")
	}

	// Noisy waveform: the same edge delayed by 120 ps (a crosstalk
	// push-out), full swing.
	vdd := tech.Vdd
	delay := 120e-12
	noisy := wave.FromFunc(func(tt float64) float64 {
		u := (tt - (pt.Arrival + delay - pt.Trans/1.6)) / (pt.Trans / 0.8)
		u = math.Max(0, math.Min(1, u))
		return vdd * (1 - u)
	}, 0, pt.Arrival+delay+2*pt.Trans+0.5e-9, 1500)

	noisyTimer := New(lib, d)
	noisyTimer.Annotate("n1", &NoiseAnnotation{Noisy: noisy, Edge: wave.Falling})
	res, err := noisyTimer.RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatalf("noise-aware run: %v", err)
	}
	// y's rising arrival (driven by n1 falling) must move out by ≈ delay.
	shift := res.Nets["y"].Rise.Arrival - base.Nets["y"].Rise.Arrival
	if math.Abs(shift-delay) > 60e-12 {
		t.Errorf("arrival shift %.1f ps, want ≈%.1f ps", shift*1e12, delay*1e12)
	}
	t.Logf("push-out through reconstructed annotation: %.1f ps (injected %.1f ps)",
		shift*1e12, delay*1e12)
}

// TestReconstructionRequiresWaves: without characterized waveforms the
// reconstruction must fail with a clear error.
func TestReconstructionRequiresWaves(t *testing.T) {
	tech := device.Default130()
	lib, err := charlib.Characterize(tech,
		[]device.Cell{device.Inverter(tech, 1), device.Inverter(tech, 4)},
		charlib.FastOptions()) // no WithWaves
	if err != nil {
		t.Fatal(err)
	}
	d := mustParse(t, `
design nr
input a
output y
gate u1 INVX1 A=a Y=n1
gate u2 INVX4 A=n1 Y=y
`)
	timer := New(lib, d)
	noisy := wave.FromFunc(func(tt float64) float64 { return 1.2 * tt / 1e-9 }, 0, 1e-9, 100)
	timer.Annotate("n1", &NoiseAnnotation{Noisy: noisy, Edge: wave.Rising})
	if _, err := timer.RunCtx(context.Background(), RunOptions{Workers: 1}); err == nil {
		t.Error("reconstruction without characterized waveforms accepted")
	}
}
