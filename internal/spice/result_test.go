package spice

import (
	"context"
	"math"
	"testing"

	"noisewave/internal/circuit"
)

func TestResultAccessors(t *testing.T) {
	r := newResult([]string{"a", "b"})
	r.record(0, func(n string) float64 { return 1 })
	r.record(1e-12, func(n string) float64 {
		if n == "a" {
			return 2
		}
		return 3
	})
	if r.Steps() != 2 {
		t.Fatalf("steps: %d", r.Steps())
	}
	v, err := r.Voltage("a")
	if err != nil || v[1] != 2 {
		t.Errorf("Voltage(a): %v %v", v, err)
	}
	if _, err := r.Voltage("zz"); err == nil {
		t.Error("unknown probe accepted")
	}
	f, err := r.final("b")
	if err != nil || f != 3 {
		t.Errorf("final(b): %g %v", f, err)
	}
	w, err := r.Waveform("a")
	if err != nil || w.Len() != 2 {
		t.Errorf("Waveform: %v %v", w, err)
	}
	if len(r.names) != 2 || r.names[0] != "a" {
		t.Errorf("names: %v", r.names)
	}
}

func TestOptionsValidation(t *testing.T) {
	bad := []struct {
		step, start, stop float64
	}{
		{0, 0, 1e-9},        // no step
		{1e-12, 0, 0},       // no stop
		{1e-12, 0, -1},      // stop before start
		{1e-12, 2e-9, 1e-9}, // inverted window
	}
	ckt := circuit.New()
	ckt.AddResistor(ckt.Node("a"), circuit.Ground, 1)
	for i, c := range bad {
		if _, err := New(ckt, Options{Step: c.step}).Run(context.Background(), c.start, c.stop); err == nil {
			t.Errorf("options %d accepted", i)
		}
	}
}

func TestSingularCircuitReported(t *testing.T) {
	// Two ideal sources fighting over one node: the MNA system is
	// inconsistent/singular and must be reported, not crash.
	ckt := circuit.New()
	a := ckt.Node("a")
	ckt.AddVSource("v1", a, circuit.Ground, circuit.DCSource(1))
	ckt.AddVSource("v2", a, circuit.Ground, circuit.DCSource(2))
	_, err := New(ckt, Options{Step: 1e-10}).Run(context.Background(), 0, 1e-9)
	if err == nil {
		t.Fatal("conflicting sources accepted")
	}
}

func TestProbeSelection(t *testing.T) {
	ckt := circuit.New()
	a := ckt.Node("a")
	b := ckt.Node("b")
	ckt.AddVSource("v", a, circuit.Ground, circuit.DCSource(1))
	ckt.AddResistor(a, b, 1e3)
	ckt.AddResistor(b, circuit.Ground, 1e3)
	res, err := New(ckt, Options{Step: 1e-11, Probes: []string{"b"}}).Run(context.Background(), 0, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Voltage("b"); err != nil {
		t.Error("probed node missing")
	}
	if _, err := res.Voltage("a"); err == nil {
		t.Error("unprobed node recorded")
	}
	if v, _ := res.final("b"); math.Abs(v-0.5) > 1e-6 {
		t.Errorf("divider value %g", v)
	}
}

func TestMethodString(t *testing.T) {
	if trap.String() != "TR" || backwardEuler.String() != "BE" {
		t.Error("method names")
	}
}
