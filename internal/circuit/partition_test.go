package circuit

import (
	"testing"

	"noisewave/internal/wave"
)

// TestStampLinearRHSMatchesStampLinear builds a representative RC+vsource
// circuit, stamps the full baseline and the RHS-only restamp from the same
// starting point, and requires bitwise-equal B vectors.
func TestStampLinearRHSMatchesStampLinear(t *testing.T) {
	c := New()
	a, bNode, out := c.Node("a"), c.Node("b"), c.Node("out")
	c.AddVSource("vin", a, Ground, SlewRamp(1e-10, 40e-12, 1.2, wave.Rising))
	c.AddResistor(a, bNode, 100)
	cap1 := c.AddCapacitor(bNode, Ground, 1e-15)
	c.AddResistor(bNode, out, 250)
	cap2 := c.AddCapacitor(out, a, 2e-15)
	c.AddVSource("vdd", out, Ground, DCSource(1.2))

	p := NewPartition(c)
	asm := NewAssembler(c)
	asm.Time = 1.3e-10
	ic := IntegrationCoeffs{Geq: 2 / 1e-12, HistI: -1}
	for _, cp := range []*Capacitor{cap1, cap2} {
		cp.BeginStep(ic)
		cp.vPrev = 0.3
		cp.iPrev = 1e-6
	}

	asm.Reset()
	p.StampLinear(asm, Transient)
	wantB := append([]float64(nil), asm.B...)

	asm.Reset()
	p.StampLinearRHS(asm, Transient)
	for i := range wantB {
		if asm.B[i] != wantB[i] {
			t.Fatalf("B[%d]: RHS-only %g vs full %g", i, asm.B[i], wantB[i])
		}
	}

	// DC mode: capacitors open in both paths.
	asm.Reset()
	p.StampLinear(asm, DC)
	wantB = append(wantB[:0], asm.B...)
	asm.Reset()
	p.StampLinearRHS(asm, DC)
	for i := range wantB {
		if asm.B[i] != wantB[i] {
			t.Fatalf("DC B[%d]: RHS-only %g vs full %g", i, asm.B[i], wantB[i])
		}
	}
}
