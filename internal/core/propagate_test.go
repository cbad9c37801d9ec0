package core_test

import (
	"context"
	"math"
	"testing"

	"noisewave/internal/core"
	"noisewave/internal/device"
	"noisewave/internal/eqwave"
	"noisewave/internal/xtalk"
)

// TestCompareTechniquesEndToEnd is the headline integration test: all six
// techniques must produce a prediction for a representative noisy case and
// the sensitivity-aware techniques (WLS5, SGDP) must beat the point-based
// ones, with SGDP at least as accurate as WLS5.
func TestCompareTechniquesEndToEnd(t *testing.T) {
	cfg := xtalk.ConfigurationI(device.Default130())
	cfg.Step = 2e-12
	const vs = 0.3e-9
	nlIn, nlOut, err := cfg.RunNoiselessCtx(context.Background(), vs)
	if err != nil {
		t.Fatalf("noiseless run: %v", err)
	}
	gate := core.NewInverterChainSim(cfg.Tech,
		[]float64{cfg.ReceiverDrive, cfg.Load1Drive, cfg.Load2Drive}, cfg.Step)

	// Average over a few representative alignments to avoid judging on a
	// single lucky case.
	offsets := []float64{0.0, 0.1e-9, 0.25e-9, -0.1e-9}
	sumAbs := map[string]float64{}
	for _, off := range offsets {
		nIn, nOut, err := cfg.RunCtx(context.Background(), vs, []float64{vs + off})
		if err != nil {
			t.Fatalf("noisy run (off=%g): %v", off, err)
		}
		in := eqwave.Input{
			Noisy: nIn, Noiseless: nlIn, NoiselessOut: nlOut,
			Vdd: cfg.Tech.Vdd, Edge: cfg.VictimEdge,
		}
		cmp, err := core.CompareTechniquesWith(gate, in, nOut, core.CompareOptions{Techniques: eqwave.All()})
		if err != nil {
			t.Fatalf("CompareTechniquesWith: %v", err)
		}
		for _, r := range cmp.Results {
			if r.Err != nil {
				t.Fatalf("technique %s failed (off=%g): %v", r.Name, off, r.Err)
			}
			sumAbs[r.Name] += math.Abs(r.ArrivalError)
			t.Logf("off=%+.2gns  %-5s err=%+7.2f ps", off*1e9, r.Name, r.ArrivalError*1e12)
		}
	}
	n := float64(len(offsets))
	for name, s := range sumAbs {
		t.Logf("avg |err| %-5s = %.2f ps", name, s/n*1e12)
	}
	// Sanity bounds: every technique within 250 ps on average.
	for name, s := range sumAbs {
		if s/n > 250e-12 {
			t.Errorf("%s average error %.1f ps is implausibly large", name, s/n*1e12)
		}
	}
	// Accuracy ordering on the averages. The full 200-case statistics live
	// in the experiments package; on this 4-offset spot check we only
	// require that the sensitivity-based techniques stay in the same class
	// (SGDP within 1.5× of WLS5) and beat the best point-based technique.
	if sumAbs["SGDP"] > sumAbs["WLS5"]*1.5 {
		t.Errorf("SGDP (%.2f ps) should not be far worse than WLS5 (%.2f ps)",
			sumAbs["SGDP"]/n*1e12, sumAbs["WLS5"]/n*1e12)
	}
	pointBest := math.Min(sumAbs["P1"], sumAbs["P2"])
	if sumAbs["SGDP"] > pointBest {
		t.Errorf("SGDP (%.2f ps) should beat point-based best (%.2f ps)",
			sumAbs["SGDP"]/n*1e12, pointBest/n*1e12)
	}
}
