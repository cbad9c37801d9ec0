package spice

import (
	"context"
	"math"
	"testing"

	"noisewave/internal/circuit"
	"noisewave/internal/device"
	"noisewave/internal/wave"
)

// TestRCStepResponse checks the simulator against the analytic exponential
// response of a single RC low-pass driven by a voltage step.
func TestRCStepResponse(t *testing.T) {
	const (
		r   = 1e3
		c   = 1e-12 // tau = 1 ns
		vdd = 1.0
	)
	ckt := circuit.New()
	in := ckt.Node("in")
	out := ckt.Node("out")
	ckt.AddVSource("vin", in, circuit.Ground, circuit.PWL{
		T: []float64{0, 1e-12}, V: []float64{0, vdd},
	})
	ckt.AddResistor(in, out, r)
	ckt.AddCapacitor(out, circuit.Ground, c)

	sim := New(ckt, Options{Step: 5e-12})
	res, err := sim.Run(context.Background(), 0, 5e-9)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	w, err := res.Waveform("out")
	if err != nil {
		t.Fatalf("Waveform: %v", err)
	}
	tau := r * c
	for _, tc := range []float64{0.5e-9, 1e-9, 2e-9, 4e-9} {
		want := vdd * (1 - math.Exp(-(tc-1e-12)/tau))
		got := w.At(tc)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("v(out) at t=%g: got %.4f want %.4f", tc, got, want)
		}
	}
	// Final value approaches vdd.
	if vf := w.At(5e-9); vf < 0.99 {
		t.Errorf("final value %.4f, want ~1", vf)
	}
}

// TestRCChargeConservation checks trapezoidal integration on a charge
// divider: two equal caps through a resistor settle to the mean voltage.
func TestRCChargeConservation(t *testing.T) {
	ckt := circuit.New()
	a := ckt.Node("a")
	b := ckt.Node("b")
	// Pre-charge node a to 1 V with a source that disconnects... an ideal
	// source cannot disconnect, so instead drive a through a tiny R from a
	// stepped source and check the divider midpoint behaviour at node b.
	src := ckt.Node("src")
	ckt.AddVSource("v", src, circuit.Ground, circuit.PWL{T: []float64{0, 1e-12}, V: []float64{0, 1}})
	ckt.AddResistor(src, a, 10)
	ckt.AddResistor(a, b, 1e4)
	ckt.AddCapacitor(a, circuit.Ground, 1e-13)
	ckt.AddCapacitor(b, circuit.Ground, 1e-13)
	sim := New(ckt, Options{Step: 2e-11})
	res, err := sim.Run(context.Background(), 0, 2e-8)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	vb, err := res.final("b")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vb-1) > 0.01 {
		t.Errorf("v(b) final = %.4f, want ~1 (fully charged)", vb)
	}
}

// TestInverterDC checks the static transfer curve: output high for low
// input, low for high input, and a transition region in between.
func TestInverterDC(t *testing.T) {
	tech := device.Default130()
	for _, vin := range []float64{0, 0.2, 1.0, 1.2} {
		ckt := circuit.New()
		in := ckt.Node("in")
		out := ckt.Node("out")
		vdd := ckt.Node("vdd")
		ckt.AddVSource("vdd", vdd, circuit.Ground, circuit.DCSource(tech.Vdd))
		ckt.AddVSource("vin", in, circuit.Ground, circuit.DCSource(vin))
		ckt.AddInverter("u1", tech, 1, in, out, vdd)
		sim := New(ckt, Options{Step: 1e-11})
		op, err := sim.operatingPoint()
		if err != nil {
			t.Fatalf("vin=%g: operatingPoint: %v", vin, err)
		}
		vout := op["out"]
		if vin <= 0.2 && vout < tech.Vdd-0.05 {
			t.Errorf("vin=%g: vout=%.3f, want ~%.2f", vin, vout, tech.Vdd)
		}
		if vin >= 1.0 && vout > 0.05 {
			t.Errorf("vin=%g: vout=%.3f, want ~0", vin, vout)
		}
	}
}

// TestInverterTransient checks that an inverter chain inverts and that the
// stage delay is in a physically plausible range (1–100 ps for a ×1
// inverter driving a ×4 load in a 130 nm-class technology).
func TestInverterTransient(t *testing.T) {
	tech := device.Default130()
	ckt := circuit.New()
	in := ckt.Node("in")
	mid := ckt.Node("mid")
	out := ckt.Node("out")
	vdd := ckt.Node("vdd")
	ckt.AddVSource("vdd", vdd, circuit.Ground, circuit.DCSource(tech.Vdd))
	ckt.AddVSource("vin", in, circuit.Ground,
		circuit.SlewRamp(0.2e-9, 150e-12, tech.Vdd, wave.Rising))
	ckt.AddInverter("u1", tech, 1, in, mid, vdd)
	ckt.AddInverter("u2", tech, 4, mid, out, vdd)

	sim := New(ckt, Options{Step: 0.5e-12})
	res, err := sim.Run(context.Background(), 0, 1.5e-9)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wIn, _ := res.Waveform("in")
	wMid, err := res.Waveform("mid")
	if err != nil {
		t.Fatal(err)
	}
	wOut, err := res.Waveform("out")
	if err != nil {
		t.Fatal(err)
	}
	// mid must fall, out must rise.
	if wMid.V[len(wMid.V)-1] > 0.1 {
		t.Fatalf("mid did not fall: final %.3f", wMid.V[len(wMid.V)-1])
	}
	if wOut.V[len(wOut.V)-1] < tech.Vdd-0.1 {
		t.Fatalf("out did not rise: final %.3f", wOut.V[len(wOut.V)-1])
	}
	half := 0.5 * tech.Vdd
	tin, err := wIn.LastCrossing(half)
	if err != nil {
		t.Fatal(err)
	}
	tmid, err := wMid.LastCrossing(half)
	if err != nil {
		t.Fatal(err)
	}
	d1 := tmid - tin
	if d1 < 0.5e-12 || d1 > 120e-12 {
		t.Errorf("stage-1 delay %.3g s out of plausible range", d1)
	}
}

// TestBreakpointAlignment ensures source knots are hit exactly so sharp
// edges are not smeared across a step.
func TestBreakpointAlignment(t *testing.T) {
	ckt := circuit.New()
	in := ckt.Node("in")
	ckt.AddVSource("vin", in, circuit.Ground, circuit.PWL{
		T: []float64{0, 0.33e-9, 0.34e-9}, V: []float64{0, 0, 1},
	})
	ckt.AddResistor(in, circuit.Ground, 1e6)
	sim := New(ckt, Options{Step: 0.1e-9})
	res, err := sim.Run(context.Background(), 0, 1e-9)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	found := false
	for _, tt := range res.Time {
		if math.Abs(tt-0.33e-9) < 1e-15 {
			found = true
		}
	}
	if !found {
		t.Errorf("breakpoint 0.33ns not in time grid")
	}
	w, _ := res.Waveform("in")
	if v := w.At(0.33e-9); math.Abs(v) > 1e-9 {
		t.Errorf("edge smeared: v(0.33ns)=%g want 0", v)
	}
}

// TestNewtonFailureRecovery: a brutally fast edge into a nonlinear load
// should still converge via step halving.
func TestStiffEdge(t *testing.T) {
	tech := device.Default130()
	ckt := circuit.New()
	in := ckt.Node("in")
	out := ckt.Node("out")
	vdd := ckt.Node("vdd")
	ckt.AddVSource("vdd", vdd, circuit.Ground, circuit.DCSource(tech.Vdd))
	ckt.AddVSource("vin", in, circuit.Ground, circuit.PWL{
		T: []float64{0.1e-9, 0.1001e-9}, V: []float64{0, tech.Vdd}, // 0.1 ps edge
	})
	ckt.AddInverter("u1", tech, 16, in, out, vdd)
	sim := New(ckt, Options{Step: 1e-12})
	res, err := sim.Run(context.Background(), 0, 0.5e-9)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v, _ := res.final("out"); v > 0.05 {
		t.Errorf("output should be low, got %.3f", v)
	}
}
