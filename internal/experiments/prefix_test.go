package experiments

import (
	"context"
	"math"
	"testing"

	"noisewave/internal/core"
	"noisewave/internal/device"
	"noisewave/internal/eqwave"
	"noisewave/internal/telemetry"
	"noisewave/internal/wave"
	"noisewave/internal/xtalk"
)

// TestQuietPrefixSweepBitIdentical re-runs every golden transient and every
// Γeff replay of a reduced Table 1 sweep, on both configurations, twice:
// on a worker set up as RunTable1 sets it up — the testbench and the
// replay chain each holding a quiet prefix up to the victim edge — and on
// a fresh testbench and replay chain per case, which have no prefix and a
// cold power memo. Every recorded sample must match bit for bit, and the
// prefixed worker must actually have resumed.
func TestQuietPrefixSweepBitIdentical(t *testing.T) {
	const victimStart = 0.3e-9 // RunTable1's victim edge
	tech := device.Default130()
	ctx := context.Background()
	for _, cfg := range []xtalk.Config{xtalk.ConfigurationI(tech), xtalk.ConfigurationII(tech)} {
		cfg.Step = 2e-12
		cases := sweepCases(t, 24)
		reg := telemetry.New()
		cfg.Telemetry = reg
		bench, err := xtalk.NewBench(cfg)
		if err != nil {
			t.Fatal(err)
		}
		drives := []float64{cfg.ReceiverDrive, cfg.Load1Drive, cfg.Load2Drive}
		gate := core.NewInverterChainSim(cfg.Tech, drives, cfg.Step)
		gate.Telemetry = reg
		if err := bench.RecordPrefix(ctx, victimStart); err != nil {
			t.Fatal(err)
		}
		if err := gate.RecordPrefix(ctx, 0, victimStart); err != nil {
			t.Fatal(err)
		}
		cfg.Telemetry = nil
		nlIn, nlOut, err := cfg.RunNoiseless(victimStart)
		if err != nil {
			t.Fatal(err)
		}
		replays := 0
		for i := 0; i < cases; i++ {
			offsets := caseOffsets(i, cfg.Aggressors, cases, 1e-9)
			starts := make([]float64, len(offsets))
			for k, off := range offsets {
				starts[k] = victimStart + off
			}
			nIn, nOut, err := bench.RunCtx(ctx, victimStart, starts)
			if err != nil {
				t.Fatalf("config %s case %d: golden: %v", cfg.Name, i, err)
			}
			fresh, err := xtalk.NewBench(cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantIn, wantOut, err := fresh.RunCtx(ctx, victimStart, starts)
			if err != nil {
				t.Fatalf("config %s case %d: fresh golden: %v", cfg.Name, i, err)
			}
			sameSamples(t, cfg.Name, i, "golden in_u", nIn, wantIn)
			sameSamples(t, cfg.Name, i, "golden out_u", nOut, wantOut)

			in := eqwave.Input{Noisy: nIn, Noiseless: nlIn, NoiselessOut: nlOut,
				Vdd: tech.Vdd, Edge: cfg.VictimEdge, P: 15}
			got, err := core.CompareTechniquesWith(gate, in, nOut, core.CompareOptions{Ctx: ctx})
			if err != nil {
				t.Fatalf("config %s case %d: %v", cfg.Name, i, err)
			}
			want, err := core.CompareTechniquesWith(core.NewInverterChainSim(cfg.Tech, drives, cfg.Step),
				in, nOut, core.CompareOptions{Ctx: ctx})
			if err != nil {
				t.Fatalf("config %s case %d: fresh replays: %v", cfg.Name, i, err)
			}
			for j, w := range want.Results {
				g := got.Results[j]
				if (g.Err == nil) != (w.Err == nil) {
					t.Fatalf("config %s case %d %s: error %v, fresh %v", cfg.Name, i, w.Name, g.Err, w.Err)
				}
				if w.Err != nil {
					continue
				}
				sameSamples(t, cfg.Name, i, w.Name+" replay", g.EstOut, w.EstOut)
				replays++
			}
		}
		snap := reg.Snapshot()
		resumes, steps := snap.Counters["spice.fastpath.prefix_resumes"], snap.Counters["spice.fastpath.prefix_steps_reused"]
		t.Logf("config %s: %d goldens and %d replays bit-identical; %d of the prefixed runs resumed, skipping %d steps",
			cfg.Name, cases, replays, resumes, steps)
		if resumes == 0 || steps == 0 {
			t.Errorf("config %s: the prefixed worker never resumed (%d resumes, %d steps)", cfg.Name, resumes, steps)
		}
	}
}

// sameSamples requires two waveforms to hold the same samples bit for bit.
func sameSamples(t *testing.T, cfg string, i int, what string, got, want *wave.Waveform) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("config %s case %d %s: %d samples, want %d", cfg, i, what, got.Len(), want.Len())
	}
	for j := range want.T {
		if math.Float64bits(got.T[j]) != math.Float64bits(want.T[j]) ||
			math.Float64bits(got.V[j]) != math.Float64bits(want.V[j]) {
			t.Fatalf("config %s case %d %s: sample %d (%.17g, %.17g), want (%.17g, %.17g)",
				cfg, i, what, j, got.T[j], got.V[j], want.T[j], want.V[j])
		}
	}
}
