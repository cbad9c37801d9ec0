// Package circuit represents transistor-level circuits as a collection of
// stamp-able elements over a named node space, in modified nodal analysis
// (MNA) form. The transient engine in internal/spice drives the stamping.
//
// Unknown vector layout: x[0..N-1] are node voltages (ground excluded),
// x[N..N+M-1] are the branch currents of the M voltage sources.
package circuit

import (
	"fmt"
	"sort"

	"noisewave/internal/linalg"
)

// NodeID identifies a circuit node. Ground is the distinguished node that
// does not appear in the unknown vector.
type NodeID int

// Ground is the reference node ("0"/"gnd"/"vss").
const Ground NodeID = -1

// Circuit is a mutable netlist of elements.
type Circuit struct {
	names    map[string]NodeID
	nodeName []string
	elements []Element
	nvsrc    int
}

// New returns an empty circuit.
func New() *Circuit {
	return &Circuit{names: make(map[string]NodeID)}
}

// Node returns the NodeID for name, creating the node on first use. The
// names "0", "gnd" and "vss" map to Ground.
func (c *Circuit) Node(name string) NodeID {
	switch name {
	case "0", "gnd", "GND", "vss", "VSS":
		return Ground
	}
	if id, ok := c.names[name]; ok {
		return id
	}
	id := NodeID(len(c.nodeName))
	c.names[name] = id
	c.nodeName = append(c.nodeName, name)
	return id
}

// NodeName returns the name of a node (for diagnostics).
func (c *Circuit) NodeName(id NodeID) string {
	if id == Ground {
		return "0"
	}
	if int(id) < len(c.nodeName) {
		return c.nodeName[id]
	}
	return fmt.Sprintf("n%d", int(id))
}

// LookupNode returns the node with the given name if it exists.
func (c *Circuit) LookupNode(name string) (NodeID, bool) {
	switch name {
	case "0", "gnd", "GND", "vss", "VSS":
		return Ground, true
	}
	id, ok := c.names[name]
	return id, ok
}

// NumNodes returns the number of non-ground nodes.
func (c *Circuit) NumNodes() int { return len(c.nodeName) }

// NumVSources returns the number of voltage-source branch unknowns.
func (c *Circuit) NumVSources() int { return c.nvsrc }

// Size returns the MNA system dimension.
func (c *Circuit) Size() int { return c.NumNodes() + c.nvsrc }

// Elements returns the element list (not a copy).
func (c *Circuit) Elements() []Element { return c.elements }

// Add appends an element. Elements needing a voltage-source branch must be
// added through AddVSource so the branch index is assigned.
func (c *Circuit) Add(e Element) { c.elements = append(c.elements, e) }

// NodeNames returns all non-ground node names in a stable order.
func (c *Circuit) NodeNames() []string {
	out := append([]string(nil), c.nodeName...)
	sort.Strings(out)
	return out
}

// Assembler carries the in-progress MNA system through one Newton
// iteration. Elements add their linearized contributions to A and B using
// the current iterate X.
type Assembler struct {
	A *linalg.Matrix // Size×Size system matrix
	B []float64      // right-hand side
	X []float64      // current Newton iterate (node voltages + branch currents)

	Time float64 // simulation time of the step being solved

	nNodes int

	// Baseline snapshot of (A, B) for the fast-path solver: the linear
	// stamps plus gmin, captured once per solve and restored each Newton
	// iteration before the nonlinear restamp.
	baseA *linalg.Matrix
	baseB []float64
}

// NewAssembler allocates an assembler for the circuit.
func NewAssembler(c *Circuit) *Assembler {
	n := c.Size()
	return &Assembler{
		A:      linalg.NewMatrix(n, n),
		B:      make([]float64, n),
		X:      make([]float64, n),
		nNodes: c.NumNodes(),
	}
}

// Reset clears A and B for the next iteration, keeping X.
func (a *Assembler) Reset() {
	a.A.Zero()
	for i := range a.B {
		a.B[i] = 0
	}
}

// SnapshotBaseline records the current (A, B) as the solve's baseline.
// The first call allocates the snapshot storage; later calls reuse it.
func (a *Assembler) SnapshotBaseline() {
	if a.baseA == nil {
		a.baseA = a.A.Clone()
		a.baseB = append([]float64(nil), a.B...)
		return
	}
	a.baseA.CopyFrom(a.A)
	copy(a.baseB, a.B)
}

// RestoreBaseline resets (A, B) to the last SnapshotBaseline, keeping X.
// It panics if no snapshot was taken.
func (a *Assembler) RestoreBaseline() {
	a.A.CopyFrom(a.baseA)
	copy(a.B, a.baseB)
}

// SnapshotBaselineB records only B as the solve's baseline right-hand
// side, for solvers that rebuilt B in place (StampLinearRHS) while keeping
// the A baseline from an earlier full snapshot.
func (a *Assembler) SnapshotBaselineB() {
	if a.baseB == nil {
		a.baseB = append([]float64(nil), a.B...)
		return
	}
	copy(a.baseB, a.B)
}

// RestoreBaselineAt is the slot-sparse counterpart of RestoreBaseline:
// instead of copying the whole baseline system, it rewrites only the A
// entries listed in aIdx (flat A.Data indices, values supplied by the
// caller from its baseline capture) and the B entries listed in bIdx (from
// the baseline B snapshot). Correct only when every write since the last
// baseline restore hit those positions alone — which the Partition's slot
// lists guarantee when NumUnknown() == 0.
func (a *Assembler) RestoreBaselineAt(aIdx []int32, aVals []float64, bIdx []int32) {
	ad := a.A.Data
	for i, idx := range aIdx {
		ad[idx] = aVals[i]
	}
	for _, bi := range bIdx {
		a.B[bi] = a.baseB[bi]
	}
}

// V returns the voltage of node id under the current iterate.
func (a *Assembler) V(id NodeID) float64 {
	if id == Ground {
		return 0
	}
	return a.X[id]
}

// BranchIndex converts a voltage-source branch number into its row index.
func (a *Assembler) BranchIndex(branch int) int { return a.nNodes + branch }

// StampConductance adds conductance g between nodes p and n.
func (a *Assembler) StampConductance(p, n NodeID, g float64) {
	if p != Ground {
		a.A.Add(int(p), int(p), g)
	}
	if n != Ground {
		a.A.Add(int(n), int(n), g)
	}
	if p != Ground && n != Ground {
		a.A.Add(int(p), int(n), -g)
		a.A.Add(int(n), int(p), -g)
	}
}

// StampCurrentSource adds a constant current i flowing from node p to node
// n through the element (leaving p, entering n).
func (a *Assembler) StampCurrentSource(p, n NodeID, i float64) {
	if p != Ground {
		a.B[p] -= i
	}
	if n != Ground {
		a.B[n] += i
	}
}

// StampNonlinearCurrent stamps the linearized companion of a nonlinear
// current I leaving node `from` and entering node `to`:
//
//	I ≈ i0 + Σ_k g[k]·(v(dep[k]) − v*(dep[k]))
//
// where v* is the current iterate.
func (a *Assembler) StampNonlinearCurrent(from, to NodeID, i0 float64, deps []NodeID, g []float64) {
	ieq := i0
	for k, d := range deps {
		ieq -= g[k] * a.V(d)
		if d == Ground {
			continue
		}
		if from != Ground {
			a.A.Add(int(from), int(d), g[k])
		}
		if to != Ground {
			a.A.Add(int(to), int(d), -g[k])
		}
	}
	a.StampCurrentSource(from, to, ieq)
}

// StampVSource stamps an ideal voltage source v between p (+) and n (−)
// with branch number `branch`.
func (a *Assembler) StampVSource(branch int, p, n NodeID, v float64) {
	ib := a.BranchIndex(branch)
	if p != Ground {
		a.A.Add(int(p), ib, 1)
		a.A.Add(ib, int(p), 1)
	}
	if n != Ground {
		a.A.Add(int(n), ib, -1)
		a.A.Add(ib, int(n), -1)
	}
	a.B[ib] += v
}

// Element is anything that can stamp itself into the MNA system.
type Element interface {
	// Stamp adds the element's (possibly linearized) contribution for the
	// iterate in a.X. mode selects DC (capacitors open) or transient
	// (capacitors replaced by their companion models).
	Stamp(a *Assembler, mode StampMode)
}

// StampMode selects the analysis the stamp is for.
type StampMode int

const (
	// DC stamps for an operating-point solve: capacitors open.
	DC StampMode = iota
	// Transient stamps with capacitor companion models active.
	Transient
)

// Dynamic is implemented by elements with internal state (capacitors).
type Dynamic interface {
	Element
	// BeginStep is called once before the Newton loop of each timestep
	// with the step size h and integration coefficients.
	BeginStep(ic IntegrationCoeffs)
	// EndStep is called after a step is accepted so the element can
	// update its stored state from the accepted solution.
	EndStep(a *Assembler)
	// InitState initializes state from a DC solution.
	InitState(a *Assembler)
}

// IntegrationCoeffs communicates the integrator's companion-model
// coefficients to capacitive elements: i_{n+1} = Geq·(v_{n+1} − v_n) + Ihist
// with Ihist = HistI·i_n (HistI = −1 for trapezoidal, 0 for backward Euler).
type IntegrationCoeffs struct {
	Geq   float64 // companion conductance multiplier per farad (2/h TR, 1/h BE)
	HistI float64 // weight of the previous element current in the companion
}
