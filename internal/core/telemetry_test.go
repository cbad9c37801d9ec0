package core

import (
	"context"
	"errors"
	"testing"

	"noisewave/internal/device"
	"noisewave/internal/eqwave"
	"noisewave/internal/telemetry"
	"noisewave/internal/wave"
)

// compareFixture builds the synthetic single-case comparison workload used
// by the options-struct tests.
func compareFixture(t *testing.T) (*GateSim, eqwave.Input, *wave.Waveform, []eqwave.Technique) {
	t.Helper()
	tech := device.Default130()
	vdd := tech.Vdd
	gate := NewInverterChainSim(tech, []float64{1}, 1e-12)
	r1 := wave.RampThroughPoint(vdd/150e-12, 0.5e-9, vdd/2, 0, vdd)
	noisy := r1.ToWaveform(0, 2e-9, 64)
	trueOut := wave.FromFunc(func(tt float64) float64 {
		return vdd - r1.Shifted(60e-12).At(tt)
	}, 0, 2e-9, 64)
	in := eqwave.Input{Noisy: noisy, Noiseless: noisy, NoiselessOut: trueOut, Vdd: vdd}
	techs := []eqwave.Technique{
		fixedRamp{"A", r1}, fixedRamp{"B", r1.Shifted(20e-12)},
	}
	return gate, in, trueOut, techs
}

// TestCompareTechniquesWithCancel: a canceled context stops the comparison
// with an error matching telemetry.ErrCanceled.
func TestCompareTechniquesWithCancel(t *testing.T) {
	gate, in, trueOut, techs := compareFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CompareTechniquesWith(gate, in, trueOut, CompareOptions{
		Ctx: ctx, Techniques: techs,
	})
	if err == nil {
		t.Fatal("nil error under canceled context")
	}
	if !errors.Is(err, telemetry.ErrCanceled) {
		t.Errorf("error %v does not match telemetry.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not match context.Canceled", err)
	}
}

// TestCompareTechniquesWithTelemetry: a comparison must leave its
// per-technique fit timers, replay counters and replay transients in the
// gate's registry.
func TestCompareTechniquesWithTelemetry(t *testing.T) {
	gate, in, trueOut, techs := compareFixture(t)
	reg := telemetry.New()
	gate.Telemetry = reg
	cmp, err := CompareTechniquesWith(gate, in, trueOut, CompareOptions{Techniques: techs})
	if err != nil {
		t.Fatalf("CompareTechniquesWith: %v", err)
	}
	snap := reg.Snapshot()
	for _, name := range []string{"A", "B"} {
		if ts := snap.Timers["eqwave.fit_seconds."+name]; ts.Count != 1 {
			t.Errorf("fit timer for %s observed %d times, want 1", name, ts.Count)
		}
	}
	if got := snap.Counters["core.replay_misses"]; got != int64(cmp.ReplayMisses) {
		t.Errorf("core.replay_misses = %d, want %d", got, cmp.ReplayMisses)
	}
	// Both outputs settle inside the trimmed window: no replay reruns.
	if got, ok := snap.Counters["core.replay_extended"]; !ok || got != 0 {
		t.Errorf("core.replay_extended = %d (published %v), want 0", got, ok)
	}
	// The replays themselves ran under the gate's registry.
	if got := snap.Counters["spice.transients"]; got <= 0 {
		t.Errorf("spice.transients = %d, want > 0 (replay transients)", got)
	}
}
