package spice

import (
	"context"
	"math"
	"testing"

	"noisewave/internal/circuit"
)

// rcError runs the RC step response at a given fixed step with the given
// method and returns the max abs error against the analytic exponential,
// sampled away from the source breakpoint.
func rcError(t *testing.T, m method, step float64) float64 {
	t.Helper()
	const (
		r   = 1e3
		c   = 1e-12
		t0  = 0.1e-9
		vdd = 1.0
	)
	ckt := circuit.New()
	in := ckt.Node("in")
	out := ckt.Node("out")
	ckt.AddVSource("vin", in, circuit.Ground, circuit.PWL{T: []float64{t0, t0 + 1e-15}, V: []float64{0, vdd}})
	ckt.AddResistor(in, out, r)
	ckt.AddCapacitor(out, circuit.Ground, c)
	sim := New(ckt, Options{Step: step, method: m})
	res, err := sim.Run(context.Background(), 0, 4e-9)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	w, err := res.Waveform("out")
	if err != nil {
		t.Fatal(err)
	}
	tau := r * c
	maxErr := 0.0
	for _, tc := range []float64{0.5e-9, 1e-9, 1.5e-9, 2e-9, 3e-9} {
		want := vdd * (1 - math.Exp(-(tc-t0)/tau))
		if e := math.Abs(w.At(tc) - want); e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}

// TestIntegrationOrders verifies the local truncation behaviour of the two
// integrators on an analytic RC response: halving the step must shrink the
// backward-Euler error ≈2× (first order) and the trapezoidal error ≈4×
// (second order).
func TestIntegrationOrders(t *testing.T) {
	const h = 40e-12
	beCoarse := rcError(t, backwardEuler, h)
	beFine := rcError(t, backwardEuler, h/2)
	trCoarse := rcError(t, trap, h)
	trFine := rcError(t, trap, h/2)

	beRatio := beCoarse / beFine
	trRatio := trCoarse / trFine
	t.Logf("BE: %.3g -> %.3g (ratio %.2f); TR: %.3g -> %.3g (ratio %.2f)",
		beCoarse, beFine, beRatio, trCoarse, trFine, trRatio)

	if beRatio < 1.6 || beRatio > 2.6 {
		t.Errorf("backward Euler convergence ratio %.2f, want ≈2 (first order)", beRatio)
	}
	if trRatio < 3.0 {
		t.Errorf("trapezoidal convergence ratio %.2f, want ≈4 (second order)", trRatio)
	}
	if trCoarse > beCoarse {
		t.Errorf("TR (%.3g) should beat BE (%.3g) at equal step", trCoarse, beCoarse)
	}
}
