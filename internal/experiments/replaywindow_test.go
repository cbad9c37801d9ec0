package experiments

import (
	"context"
	"math"
	"testing"

	"noisewave/internal/core"
	"noisewave/internal/device"
	"noisewave/internal/eqwave"
	"noisewave/internal/telemetry"
	"noisewave/internal/xtalk"
)

// TestReplayWindowMatchesFullWindow: the sweep replays each Γeff only until
// margin past the ramp's end (core.WindowFor). Every (case, technique)
// arrival error it reports must equal, bit for bit, the error of a replay
// that runs to the end of the reference record, and no replay may have
// needed the unsettled-output rerun. Both configurations are covered.
func TestReplayWindowMatchesFullWindow(t *testing.T) {
	const victimStart = 0.3e-9 // RunTable1's victim edge
	tech := device.Default130()
	for _, cfg := range []xtalk.Config{xtalk.ConfigurationI(tech), xtalk.ConfigurationII(tech)} {
		cfg.Step = 2e-12
		reg := telemetry.New()
		res, err := RunTable1(cfg, Table1Options{
			Cases: sweepCases(t, 30), Range: 1e-9, P: 35,
			SweepOptions: SweepOptions{Telemetry: reg},
		})
		if err != nil {
			t.Fatalf("config %s: RunTable1: %v", cfg.Name, err)
		}
		if got := reg.Snapshot().Counters["core.replay_extended"]; got != 0 {
			t.Errorf("config %s: core.replay_extended = %d, want 0", cfg.Name, got)
		}

		nlIn, nlOut, err := cfg.RunNoiselessCtx(context.Background(), victimStart)
		if err != nil {
			t.Fatal(err)
		}
		bench, err := xtalk.NewBench(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gate := core.NewInverterChainSim(cfg.Tech,
			[]float64{cfg.ReceiverDrive, cfg.Load1Drive, cfg.Load2Drive}, cfg.Step)
		vdd := cfg.Tech.Vdd
		compared := 0
		for i, rec := range res.Cases {
			starts := make([]float64, len(rec.Offsets))
			for k, off := range rec.Offsets {
				starts[k] = victimStart + off
			}
			nIn, nOut, _, err := bench.RunReportCtx(context.Background(), victimStart, starts)
			if err != nil {
				t.Fatalf("config %s case %d: golden: %v", cfg.Name, i, err)
			}
			trueArr, err := core.ArrivalAt(nOut, vdd)
			if err != nil {
				t.Fatal(err)
			}
			in := eqwave.Input{Noisy: nIn, Noiseless: nlIn, NoiselessOut: nlOut,
				Vdd: vdd, Edge: cfg.VictimEdge, P: 35}
			for _, tq := range eqwave.All() {
				got, ok := rec.Errors[tq.Name()]
				gamma, err := tq.Equivalent(in)
				if err != nil {
					if ok {
						t.Errorf("config %s case %d %s: sweep scored a technique the oracle cannot fit: %v",
							cfg.Name, i, tq.Name(), err)
					}
					continue
				}
				start, stop := core.WindowFor(gamma, nOut, 0.2e-9)
				full, err := gate.OutputForRampCtx(context.Background(), gamma, start, math.Max(stop, nOut.End()))
				if err != nil {
					t.Fatalf("config %s case %d %s: full-window replay: %v", cfg.Name, i, tq.Name(), err)
				}
				arr, err := core.ArrivalAt(full, vdd)
				if err != nil {
					t.Fatal(err)
				}
				if want := arr - trueArr; !ok || math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("config %s case %d %s: error %.17g (scored %v), full window %.17g",
						cfg.Name, i, tq.Name(), got, ok, want)
				}
				compared++
			}
		}
		t.Logf("config %s: %d arrival errors bit-identical to full-window replays", cfg.Name, compared)
	}
}
