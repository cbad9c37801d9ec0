package circuit

import (
	"fmt"

	"noisewave/internal/device"
)

// Resistor is a linear two-terminal resistor.
type Resistor struct {
	P, N NodeID
	R    float64 // ohms, must be > 0
}

// AddResistor appends a resistor between p and n.
func (c *Circuit) AddResistor(p, n NodeID, r float64) *Resistor {
	if r <= 0 {
		panic(fmt.Sprintf("circuit: resistor must have R > 0, got %g", r))
	}
	e := &Resistor{P: p, N: n, R: r}
	c.Add(e)
	return e
}

// Stamp implements Element.
func (r *Resistor) Stamp(a *Assembler, _ StampMode) {
	a.StampConductance(r.P, r.N, 1/r.R)
}

// Capacitor is a linear two-terminal capacitor with companion-model state.
type Capacitor struct {
	P, N NodeID
	C    float64 // farads, must be >= 0

	// Companion state.
	geq   float64 // active companion conductance (C·Geq)
	hist  float64 // weight of previous current
	vPrev float64 // accepted v(P)−v(N) of the previous step
	iPrev float64 // accepted element current of the previous step
}

// AddCapacitor appends a capacitor between p and n.
func (c *Circuit) AddCapacitor(p, n NodeID, farads float64) *Capacitor {
	if farads < 0 {
		panic(fmt.Sprintf("circuit: capacitor must have C >= 0, got %g", farads))
	}
	e := &Capacitor{P: p, N: n, C: farads}
	c.Add(e)
	return e
}

// BeginStep implements Dynamic.
func (cp *Capacitor) BeginStep(ic IntegrationCoeffs) {
	cp.geq = cp.C * ic.Geq
	cp.hist = ic.HistI
}

// Stamp implements Element. In DC mode a capacitor is open.
func (cp *Capacitor) Stamp(a *Assembler, mode StampMode) {
	if mode == DC || cp.C == 0 {
		return
	}
	// i = geq·v − (geq·vPrev − hist·iPrev); companion current source points
	// from P to N.
	a.StampConductance(cp.P, cp.N, cp.geq)
	ieq := -cp.geq*cp.vPrev + cp.hist*cp.iPrev
	a.StampCurrentSource(cp.P, cp.N, ieq)
}

// EndStep implements Dynamic: records the accepted voltage and current.
func (cp *Capacitor) EndStep(a *Assembler) {
	v := a.V(cp.P) - a.V(cp.N)
	i := cp.geq*(v-cp.vPrev) + cp.hist*cp.iPrev
	// hist is −1 for TR: i = geq·Δv − iPrev. For BE hist = 0.
	cp.vPrev = v
	cp.iPrev = i
}

// InitState implements Dynamic: capacitors start at the DC voltage with
// zero current.
func (cp *Capacitor) InitState(a *Assembler) {
	cp.vPrev = a.V(cp.P) - a.V(cp.N)
	cp.iPrev = 0
}

// VSource is an ideal voltage source with a time-varying value.
type VSource struct {
	Name   string
	P, N   NodeID
	Branch int
	Value  Source
}

// AddVSource appends an ideal voltage source from p (+) to n (−) driven by
// the given source function, and assigns it a branch unknown.
func (c *Circuit) AddVSource(name string, p, n NodeID, src Source) *VSource {
	e := &VSource{Name: name, P: p, N: n, Branch: c.nvsrc, Value: src}
	c.nvsrc++
	c.Add(e)
	return e
}

// Stamp implements Element. The assembler's Time is the operating-point
// time for DC solves and the end-of-step time during transients.
func (v *VSource) Stamp(a *Assembler, _ StampMode) {
	a.StampVSource(v.Branch, v.P, v.N, v.Value.At(a.Time))
}

// MOSPolarity selects NMOS or PMOS.
type MOSPolarity int

const (
	// NType is an NMOS device.
	NType MOSPolarity = iota
	// PType is a PMOS device.
	PType
)

// MOSFET is an alpha-power-law transistor.
type MOSFET struct {
	D, G, S  NodeID
	Params   device.MOSParams
	W        float64 // width multiplier
	Polarity MOSPolarity
}

// AddMOSFET appends a transistor with terminals drain, gate, source.
func (c *Circuit) AddMOSFET(d, g, s NodeID, params device.MOSParams, w float64, pol MOSPolarity) *MOSFET {
	e := &MOSFET{D: d, G: g, S: s, Params: params, W: w, Polarity: pol}
	c.Add(e)
	return e
}

// Stamp implements Element. The device current is stamped as a linearized
// nonlinear current for the Newton iteration.
func (m *MOSFET) Stamp(a *Assembler, _ StampMode) {
	vd, vg, vs := a.V(m.D), a.V(m.G), a.V(m.S)
	deps := []NodeID{m.G, m.D, m.S}
	var i0 float64
	g := make([]float64, 3)
	if m.Polarity == NType {
		id, dgs, dds := m.Params.IDS(vg-vs, vd-vs)
		i0 = m.W * id
		g[0] = m.W * dgs          // ∂I/∂vg
		g[1] = m.W * dds          // ∂I/∂vd
		g[2] = -m.W * (dgs + dds) // ∂I/∂vs
		// Current leaves the drain node, enters the source node.
		a.StampNonlinearCurrent(m.D, m.S, i0, deps, g)
		return
	}
	// PMOS: conduction from source (high) to drain (low):
	// I = W·IDS(vs−vg, vs−vd) leaving S, entering D.
	id, dgs, dds := m.Params.IDS(vs-vg, vs-vd)
	i0 = m.W * id
	g[0] = -m.W * dgs        // ∂I/∂vg
	g[1] = -m.W * dds        // ∂I/∂vd
	g[2] = m.W * (dgs + dds) // ∂I/∂vs
	a.StampNonlinearCurrent(m.S, m.D, i0, deps, g)
}
