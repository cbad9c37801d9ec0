package experiments

import (
	"math"
	"testing"

	"noisewave/internal/device"
	"noisewave/internal/xtalk"
)

// TestPushoutDistribution checks the physical sanity of the delay-noise
// distribution on Configuration I: opposing aggressors can only delay or
// barely speed the edge, the worst case lands when the aggressor hits
// mid-transition, and far-off alignments leave the arrival untouched.
func TestPushoutDistribution(t *testing.T) {
	cfg := xtalk.ConfigurationI(device.Default130())
	cfg.Step = 2e-12
	st, err := RunPushout(cfg, PushoutOptions{Cases: sweepCases(t, 24), Range: 1e-9})
	if err != nil {
		t.Fatalf("RunPushout: %v", err)
	}
	t.Logf("pushout: mean=%.1f ps p50=%.1f ps p95=%.1f ps max=%.1f ps min=%.1f ps",
		st.Mean*1e12, st.P50*1e12, st.P95*1e12, st.Max*1e12, st.Min*1e12)
	if st.Max <= 10e-12 {
		t.Errorf("max pushout %.1f ps — aggressor has no effect", st.Max*1e12)
	}
	if st.Max > 500e-12 {
		t.Errorf("max pushout %.1f ps — implausibly large for Cfg I", st.Max*1e12)
	}
	// An opposing aggressor should essentially never speed the edge up by
	// much.
	if st.Min < -20e-12 {
		t.Errorf("min pushout %.1f ps — opposing aggressor should not speed up the victim", st.Min*1e12)
	}
	if st.P95 < st.P50 || st.Max < st.P95 {
		t.Error("quantiles out of order")
	}
	// Histogram covers all cases.
	n := 0
	for _, b := range st.Hist {
		n += b.Count
	}
	if n != st.Cases {
		t.Errorf("histogram holds %d of %d cases", n, st.Cases)
	}
}

// TestPushoutMonteCarloAgreesWithGrid compares Monte Carlo sampling with
// the deterministic stride grid: medians within a factor of the overall
// spread (loose — both are small samples).
func TestPushoutMonteCarloAgreesWithGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("two sweeps")
	}
	cfg := xtalk.ConfigurationI(device.Default130())
	cfg.Step = 2e-12
	n := sweepCases(t, 24)
	grid, err := RunPushout(cfg, PushoutOptions{Cases: n, Range: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := RunPushout(cfg, PushoutOptions{Cases: n, Range: 1e-9, MonteCarlo: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	spread := grid.Max - grid.Min
	if spread <= 0 {
		t.Fatal("degenerate grid spread")
	}
	if d := math.Abs(grid.P50 - mc.P50); d > 0.5*spread {
		t.Errorf("grid P50 %.1f ps vs MC P50 %.1f ps — sampling bias?",
			grid.P50*1e12, mc.P50*1e12)
	}
	// Determinism: same seed, same result.
	mc2, err := RunPushout(cfg, PushoutOptions{Cases: n, Range: 1e-9, MonteCarlo: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range mc.Pushouts {
		if mc.Pushouts[i] != mc2.Pushouts[i] {
			t.Fatal("Monte Carlo sweep is not deterministic for a fixed seed")
		}
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	if q := quantile(s, 0.5); q != 3 {
		t.Errorf("median = %g", q)
	}
	if q := quantile(s, 0); q != 1 {
		t.Errorf("min = %g", q)
	}
	if q := quantile(s, 1); q != 5 {
		t.Errorf("max = %g", q)
	}
	if q := quantile(s, 0.25); q != 2 {
		t.Errorf("q25 = %g", q)
	}
	if q := quantile([]float64{7}, 0.9); q != 7 {
		t.Errorf("single = %g", q)
	}
}
