// Package interconnect builds distributed RC interconnect models — the
// victim/aggressor lines of the paper's Figure 1 testbench — and provides
// Elmore/moment analysis used for sanity checks and closed-form baselines.
package interconnect

import (
	"fmt"

	"noisewave/internal/circuit"
)

// Line is a uniform distributed RC wire modeled as a cascade of π-segments:
// each segment is a series resistance RSeg with CSeg/2 shunt capacitance at
// both ends (so interior junctions accumulate CSeg).
//
// The paper's Figure 1 annotates R = 8.5 Ω and C = 4.8 fF per segment. At
// 0.13 µm metal parameters (≈0.17 Ω/µm, ≈0.1 fF/µm) this corresponds to a
// ≈50 µm physical segment; the figure's three drawn segments are schematic
// shorthand, so a 1000 µm line is ≈20 such segments (170 Ω, 96 fF total) —
// consistent with industrial 0.13 µm wire loads and with the error
// magnitudes of Table 1.
type Line struct {
	Segments int
	RSeg     float64 // series resistance per segment (Ω)
	CSeg     float64 // total shunt capacitance per segment (F)
}

// SegmentLengthUm is the physical length represented by one R=8.5 Ω /
// C=4.8 fF π-segment.
const SegmentLengthUm = 50.0

// PaperLine returns the Figure 1 line for a given physical length:
// length/50 µm segments of R = 8.5 Ω, C = 4.8 fF each (minimum 3, the
// number of segments the figure draws).
func PaperLine(lengthUm float64) Line {
	n := int(lengthUm/SegmentLengthUm + 0.5)
	if n < 3 {
		n = 3
	}
	return Line{Segments: n, RSeg: 8.5, CSeg: 4.8e-15}
}

// Build instantiates the line into ckt starting at node from. Interior and
// far-end nodes are named "<prefix>.<i>" (i = 1..Segments); the far-end
// node ID is returned. Junction node IDs (including from and far) are
// returned for coupling-capacitor placement. Its consumer is the path
// testbench of ROADMAP item 3; the Figure 1 testbench uses BuildBetween.
func (l Line) Build(ckt *circuit.Circuit, prefix string, from circuit.NodeID) (far circuit.NodeID, junctions []circuit.NodeID) {
	if l.Segments < 1 {
		panic("interconnect: line needs at least one segment")
	}
	junctions = make([]circuit.NodeID, 0, l.Segments+1)
	junctions = append(junctions, from)
	prev := from
	for i := 1; i <= l.Segments; i++ {
		n := ckt.Node(fmt.Sprintf("%s.%d", prefix, i))
		ckt.AddResistor(prev, n, l.RSeg)
		ckt.AddCapacitor(prev, circuit.Ground, l.CSeg/2)
		ckt.AddCapacitor(n, circuit.Ground, l.CSeg/2)
		junctions = append(junctions, n)
		prev = n
	}
	return prev, junctions
}

// BuildBetween instantiates the line between two existing nodes, creating
// only the interior junction nodes ("<prefix>.<i>", i = 1..Segments−1). It
// returns all junction node IDs from the near end to the far end inclusive.
func (l Line) BuildBetween(ckt *circuit.Circuit, prefix string, from, to circuit.NodeID) []circuit.NodeID {
	if l.Segments < 1 {
		panic("interconnect: line needs at least one segment")
	}
	junctions := make([]circuit.NodeID, 0, l.Segments+1)
	junctions = append(junctions, from)
	prev := from
	for i := 1; i <= l.Segments; i++ {
		var n circuit.NodeID
		if i == l.Segments {
			n = to
		} else {
			n = ckt.Node(fmt.Sprintf("%s.%d", prefix, i))
		}
		ckt.AddResistor(prev, n, l.RSeg)
		ckt.AddCapacitor(prev, circuit.Ground, l.CSeg/2)
		ckt.AddCapacitor(n, circuit.Ground, l.CSeg/2)
		junctions = append(junctions, n)
		prev = n
	}
	return junctions
}

// CouplePair places coupling capacitors between corresponding junctions of
// two already-built lines. cmTotal is divided equally over the interior and
// far-end junctions (the figure shows one Cm per segment boundary); the
// driver-end junction is excluded since it is held by the driver.
func CouplePair(ckt *circuit.Circuit, a, b []circuit.NodeID, cmTotal float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("interconnect: junction count mismatch %d vs %d", len(a), len(b))
	}
	n := len(a) - 1 // skip index 0 (driver end)
	if n < 1 {
		return fmt.Errorf("interconnect: need at least one coupled junction")
	}
	cm := cmTotal / float64(n)
	for i := 1; i < len(a); i++ {
		ckt.AddCapacitor(a[i], b[i], cm)
	}
	return nil
}
