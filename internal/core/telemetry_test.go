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

// testRamps returns n clearly distinct cacheable ramps.
func testRamps(vdd float64, n int) []wave.Ramp {
	slope := vdd / 150e-12
	base := wave.RampThroughPoint(slope, 0.5e-9, vdd/2, 0, vdd)
	out := make([]wave.Ramp, n)
	for i := range out {
		out[i] = base.Shifted(float64(i) * 20e-12)
	}
	return out
}

// TestReplayCacheEviction: with the capacity forced down to 2, a third
// distinct ramp evicts the oldest entry (FIFO), and re-requesting the
// evicted ramp is a miss again.
func TestReplayCacheEviction(t *testing.T) {
	tech := device.Default130()
	gate := NewInverterChainSim(tech, []float64{1}, 1e-12)
	ctx := context.Background()

	c := newReplayCache(2e-9)
	c.maxEntries = 2
	ramps := testRamps(tech.Vdd, 3)
	for _, r := range ramps {
		if _, err := c.outputForRamp(ctx, gate, r, 0, 2e-9); err != nil {
			t.Fatalf("outputForRamp: %v", err)
		}
	}
	if c.evictions != 1 {
		t.Errorf("evictions = %d, want 1 after 3 inserts at capacity 2", c.evictions)
	}
	if len(c.entries) != 2 || len(c.order) != 2 {
		t.Errorf("cache holds %d entries / %d order slots, want 2/2", len(c.entries), len(c.order))
	}
	// ramps[0] was evicted first (FIFO): a repeat is a miss. ramps[2] is
	// still resident: a repeat is a hit.
	misses := c.misses
	if _, err := c.outputForRamp(ctx, gate, ramps[0], 0, 2e-9); err != nil {
		t.Fatal(err)
	}
	if c.misses != misses+1 {
		t.Error("evicted ramp should miss on re-request")
	}
	hits := c.hits
	if _, err := c.outputForRamp(ctx, gate, ramps[2], 0, 2e-9); err != nil {
		t.Fatal(err)
	}
	if c.hits != hits+1 {
		t.Error("resident ramp should hit on re-request")
	}

	reg := telemetry.New()
	c.publish(reg)
	snap := reg.Snapshot()
	if got := snap.Counters["core.replay_evictions"]; got != 2 {
		t.Errorf("published core.replay_evictions = %d, want 2", got)
	}
	if got := snap.Counters["core.replay_hits"]; got != int64(c.hits) {
		t.Errorf("published core.replay_hits = %d, want %d", got, c.hits)
	}
	if got := snap.Counters["core.replay_misses"]; got != int64(c.misses) {
		t.Errorf("published core.replay_misses = %d, want %d", got, c.misses)
	}
}

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

// TestCompareTechniquesWithTelemetry: the options-struct path must leave
// per-technique fit timers and replay counters in the registry, and must
// reset the gate's temporarily-borrowed registry afterwards.
func TestCompareTechniquesWithTelemetry(t *testing.T) {
	gate, in, trueOut, techs := compareFixture(t)
	reg := telemetry.New()
	cmp, err := CompareTechniquesWith(gate, in, trueOut, CompareOptions{
		Techniques: techs, Telemetry: reg,
	})
	if err != nil {
		t.Fatalf("CompareTechniquesWith: %v", err)
	}
	if gate.Telemetry != nil {
		t.Error("gate.Telemetry not reset after the comparison")
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
	// The replays themselves ran under the borrowed registry.
	if got := snap.Counters["spice.transients"]; got <= 0 {
		t.Errorf("spice.transients = %d, want > 0 (replay transients)", got)
	}
}
