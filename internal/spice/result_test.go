package spice

import (
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
	f, err := r.Final("b")
	if err != nil || f != 3 {
		t.Errorf("Final(b): %g %v", f, err)
	}
	w, err := r.Waveform("a")
	if err != nil || w.Len() != 2 {
		t.Errorf("Waveform: %v %v", w, err)
	}
	nodes := r.Nodes()
	if len(nodes) != 2 || nodes[0] != "a" {
		t.Errorf("Nodes: %v", nodes)
	}
}

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{Stop: 1e-9},                           // no step
		{Step: 1e-12},                          // no stop
		{Step: 1e-12, Stop: -1},                // stop before start
		{Step: 1e-12, Stop: 1e-9, Start: 2e-9}, // inverted window
	}
	ckt := circuit.New()
	ckt.AddResistor(ckt.Node("a"), circuit.Ground, 1)
	for i, o := range bad {
		if _, err := New(ckt, o).Run(); err == nil {
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
	_, err := New(ckt, Options{Stop: 1e-9, Step: 1e-10}).Run()
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
	res, err := New(ckt, Options{Stop: 1e-10, Step: 1e-11, Probes: []string{"b"}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Voltage("b"); err != nil {
		t.Error("probed node missing")
	}
	if _, err := res.Voltage("a"); err == nil {
		t.Error("unprobed node recorded")
	}
	if v, _ := res.Final("b"); math.Abs(v-0.5) > 1e-6 {
		t.Errorf("divider value %g", v)
	}
}

func TestMethodString(t *testing.T) {
	if Trap.String() != "TR" || BackwardEuler.String() != "BE" {
		t.Error("method names")
	}
}
