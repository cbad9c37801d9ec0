package core

import (
	"context"
	"math"
	"testing"

	"noisewave/internal/device"
	"noisewave/internal/wave"
)

func TestGateSimInverts(t *testing.T) {
	tech := device.Default130()
	g := NewInverterChainSim(tech, []float64{4}, 1e-12)
	ramp := wave.NewRamp(1.2/0.2e-9, -1.2*(0.3e-9)/0.2e-9, 0, 1.2) // rises 0.3→0.5 ns
	out, err := g.OutputForRampCtx(context.Background(), ramp, 0, 1.5e-9)
	if err != nil {
		t.Fatalf("OutputForRampCtx: %v", err)
	}
	if out.EdgeDir() != wave.Falling {
		t.Errorf("inverter output should fall, got %v", out.EdgeDir())
	}
	if v := out.V[len(out.V)-1]; v > 0.05 {
		t.Errorf("output did not settle low: %g", v)
	}
}

func TestGateSimEmpty(t *testing.T) {
	g := &GateSim{Tech: device.Default130(), Step: 1e-12}
	if _, err := g.OutputForSourceCtx(context.Background(), nil, 0, 1e-9); err == nil {
		t.Error("empty chain accepted")
	}
}

func TestGateDelayAndArrival(t *testing.T) {
	in := wave.FromFunc(func(tt float64) float64 {
		return math.Min(1.2, math.Max(0, (tt-0.1e-9)*1.2/0.2e-9))
	}, 0, 1e-9, 500)
	out := wave.FromFunc(func(tt float64) float64 {
		return 1.2 - math.Min(1.2, math.Max(0, (tt-0.25e-9)*1.2/0.1e-9))
	}, 0, 1e-9, 500)
	d, err := GateDelay(in, out, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	// in 50% at 0.2 ns, out 50% at 0.3 ns.
	if math.Abs(d-0.1e-9) > 2e-12 {
		t.Errorf("delay = %g, want 0.1 ns", d)
	}
	arr, err := ArrivalAt(out, 1.2)
	if err != nil || math.Abs(arr-0.3e-9) > 2e-12 {
		t.Errorf("arrival = %g, %v", arr, err)
	}
}

func TestWindowFor(t *testing.T) {
	ref := wave.MustNew([]float64{1e-9, 2e-9}, []float64{0, 1})
	r := wave.NewRamp(1.2/0.1e-9, -1.2*0.5e-9/0.1e-9, 0, 1.2) // spans 0.5..0.6 ns
	t0, t1, err := r.Span()
	if err != nil {
		t.Fatal(err)
	}
	// The start covers the ramp with margin (or the reference, whichever is
	// earlier); the stop is margin past the ramp's end, not the reference's.
	start, stop := WindowFor(r, ref, 0.1e-9)
	if start != t0-0.1e-9 {
		t.Errorf("start %g, want t0 - margin = %g", start, t0-0.1e-9)
	}
	if stop != t1+0.1e-9 {
		t.Errorf("stop %g, want t1 + margin = %g", stop, t1+0.1e-9)
	}
	early := wave.MustNew([]float64{0, 2e-9}, []float64{0, 1})
	if s, e := WindowFor(r, early, 0.1e-9); s != 0 || e != t1+0.1e-9 {
		t.Errorf("reference starting at 0: window [%g, %g], want [0, %g]", s, e, t1+0.1e-9)
	}
	// Flat ramp: window falls back to the reference span.
	flat := wave.NewRamp(0, 0.6, 0, 1.2)
	s2, e2 := WindowFor(flat, ref, 0.1e-9)
	if s2 != 1e-9 || e2 != 2e-9 {
		t.Errorf("flat ramp window [%g, %g]", s2, e2)
	}
}

func TestOutputForWaveReplaysRecordedWaveform(t *testing.T) {
	tech := device.Default130()
	g := NewInverterChainSim(tech, []float64{4}, 1e-12)
	in := wave.FromFunc(func(tt float64) float64 {
		u := (tt - 0.3e-9) / 0.2e-9
		if u < 0 {
			u = 0
		}
		if u > 1 {
			u = 1
		}
		return 1.2 * u
	}, 0, 1.2e-9, 600)
	out, err := g.OutputForWave(in, 0, 1.2e-9)
	if err != nil {
		t.Fatalf("OutputForWave: %v", err)
	}
	if out.EdgeDir() != wave.Falling {
		t.Errorf("expected falling output, got %v", out.EdgeDir())
	}
	d, err := GateDelay(in, out, tech.Vdd)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || d > 100e-12 {
		t.Errorf("replayed delay %.3g s implausible", d)
	}
}

func TestComparisonResultLookup(t *testing.T) {
	c := &Comparison{Results: []TechniqueResult{{Name: "SGDP"}, {Name: "P1"}}}
	if r, ok := c.Result("P1"); !ok || r.Name != "P1" {
		t.Error("Result lookup failed")
	}
	if _, ok := c.Result("nope"); ok {
		t.Error("unknown technique found")
	}
}
