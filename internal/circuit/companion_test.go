package circuit

import (
	"math"
	"testing"

	"noisewave/internal/device"
	"noisewave/internal/linalg"
)

// TestCapacitorCompanionCycle exercises the companion-model cycle directly:
// a capacitor charged through a resistor with the backward-Euler companion
// model must follow the discrete recurrence v_{n+1} = (v_n + h/RC·V) /
// (1 + h/RC).
func TestCapacitorCompanionCycle(t *testing.T) {
	const (
		r   = 1e3
		cap = 1e-12
		vs  = 1.0
		h   = 50e-12
	)
	c := New()
	in := c.Node("in")
	out := c.Node("out")
	c.AddVSource("v", in, Ground, DCSource(vs))
	c.AddResistor(in, out, r)
	capEl := c.AddCapacitor(out, Ground, cap)

	a := NewAssembler(c)
	// DC init: v(out) settles to vs through the open capacitor.
	solve := func(mode StampMode) {
		a.Reset()
		for _, e := range c.Elements() {
			e.Stamp(a, mode)
		}
		for i := 0; i < c.NumNodes(); i++ {
			a.A.Add(i, i, 1e-12)
		}
		x, err := linalg.SolveDense(a.A, a.B)
		if err != nil {
			t.Fatalf("solve: %v", err)
		}
		copy(a.X, x)
	}
	// Start discharged: initialize state at v=0 by hand.
	capEl.initState(a) // X is zero → vPrev = 0
	v := 0.0
	ic := IntegrationCoeffs{Geq: 1 / h, HistI: 0} // backward Euler
	for step := 0; step < 20; step++ {
		capEl.beginStep(ic)
		solve(Transient)
		capEl.endStep(a)
		// Discrete BE recurrence.
		k := h / (r * cap)
		v = (v + k*vs) / (1 + k)
		if got := a.V(out); math.Abs(got-v) > 1e-9 {
			t.Fatalf("step %d: v(out)=%.9f want %.9f", step, got, v)
		}
	}
	if a.V(out) < 0.5 {
		t.Errorf("capacitor should be half charged after 20 steps, got %.3f", a.V(out))
	}
}

func TestAddInverterConvenience(t *testing.T) {
	tech := device.Default130()
	c := New()
	c.AddInverter("u1", tech, 2, c.Node("a"), c.Node("y"), c.Node("vdd"))
	// Two FETs + three capacitors.
	if got := len(c.Elements()); got != 5 {
		t.Errorf("elements = %d, want 5", got)
	}
	names := c.NodeNames()
	if len(names) != 3 {
		t.Errorf("NodeNames = %v", names)
	}
}

func TestAddCellErrorPaths(t *testing.T) {
	tech := device.Default130()
	for _, cell := range []device.Cell{
		device.Inverter(tech, 1),
		device.Buffer(tech, 4),
		device.AOI21(tech, 1),
		device.OAI21(tech, 1),
	} {
		c := New()
		// Deliberately wrong input count (0 inputs).
		err := c.AddCell("u", cell, CellPins{Out: c.Node("y"), Vdd: c.Node("vdd")})
		if err == nil {
			t.Errorf("%s with no inputs accepted", cell.Name)
		}
	}
	// Unknown kind.
	c := New()
	bad := device.Cell{Name: "X", Kind: device.CellKind(99), Drive: 1, Tech: tech}
	if err := c.AddCell("u", bad, CellPins{
		Inputs: []NodeID{c.Node("a")}, Out: c.Node("y"), Vdd: c.Node("vdd"),
	}); err == nil {
		t.Error("unknown cell kind accepted")
	}
}
