package spice

import (
	"context"
	"math"
	"testing"

	"noisewave/internal/circuit"
	"noisewave/internal/device"
	"noisewave/internal/wave"
)

// TestAdaptiveRCAccuracy: the adaptive integrator must track the analytic
// RC exponential within tolerance while taking fewer steps than the fixed
// grid would over the long quiet tail.
func TestAdaptiveRCAccuracy(t *testing.T) {
	build := func() *circuit.Circuit {
		ckt := circuit.New()
		in := ckt.Node("in")
		out := ckt.Node("out")
		ckt.AddVSource("vin", in, circuit.Ground, circuit.PWL{
			T: []float64{0.1e-9, 0.101e-9}, V: []float64{0, 1},
		})
		ckt.AddResistor(in, out, 1e3)
		ckt.AddCapacitor(out, circuit.Ground, 1e-12) // tau = 1 ns
		return ckt
	}
	// 50 ns window with a 1 ns tau: a fixed 5 ps grid needs 10000 steps.
	fixedSteps := int(50e-9 / 5e-12)

	sim := New(build(), Options{Step: 5e-12, Adaptive: true, LTETol: 0.5e-3})
	res, err := sim.Run(context.Background(), 0, 50e-9)
	if err != nil {
		t.Fatalf("adaptive run: %v", err)
	}
	w, err := res.Waveform("out")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []float64{0.5e-9, 1e-9, 3e-9, 10e-9, 40e-9} {
		want := 1 - math.Exp(-(tc-0.101e-9)/1e-9)
		if tc < 0.101e-9 {
			want = 0
		}
		if got := w.At(tc); math.Abs(got-want) > 5e-3 {
			t.Errorf("v(out) at %g: %.5f want %.5f", tc, got, want)
		}
	}
	if res.Steps() >= fixedSteps/4 {
		t.Errorf("adaptive run took %d steps; expected well below fixed %d", res.Steps(), fixedSteps)
	}
	t.Logf("adaptive: %d steps vs %d fixed", res.Steps(), fixedSteps)
}

// TestAdaptiveMatchesFixedOnGateDelay: the adaptive mode must reproduce a
// fixed-step gate delay within a couple of picoseconds.
func TestAdaptiveMatchesFixedOnGateDelay(t *testing.T) {
	tech := device.Default130()
	build := func() *circuit.Circuit {
		ckt := circuit.New()
		in := ckt.Node("in")
		out := ckt.Node("out")
		vdd := ckt.Node("vdd")
		ckt.AddVSource("vdd", vdd, circuit.Ground, circuit.DCSource(tech.Vdd))
		ckt.AddVSource("vin", in, circuit.Ground,
			circuit.SlewRamp(0.2e-9, 150e-12, tech.Vdd, wave.Rising))
		ckt.AddInverter("u1", tech, 4, in, out, vdd)
		ckt.AddCapacitor(out, circuit.Ground, 20e-15)
		return ckt
	}
	delayOf := func(opts Options) float64 {
		sim := New(build(), opts)
		res, err := sim.Run(context.Background(), 0, 1.5e-9)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		wi, _ := res.Waveform("in")
		wo, _ := res.Waveform("out")
		ti, err := wi.LastCrossing(0.5 * tech.Vdd)
		if err != nil {
			t.Fatal(err)
		}
		to, err := wo.LastCrossing(0.5 * tech.Vdd)
		if err != nil {
			t.Fatal(err)
		}
		return to - ti
	}
	fixed := delayOf(Options{Step: 0.25e-12})
	adaptive := delayOf(Options{Step: 1e-12, Adaptive: true, LTETol: 1e-3})
	if math.Abs(fixed-adaptive) > 2e-12 {
		t.Errorf("delay fixed %.2f ps vs adaptive %.2f ps", fixed*1e12, adaptive*1e12)
	}
}
