package sta

import (
	"fmt"

	"noisewave/internal/liberty"
)

// MultiDriverError reports a net driven by more than one gate output. The
// map-based walk used to let the last driver win silently; both engines now
// reject the design, naming the net and the first two colliding drivers.
type MultiDriverError struct {
	Net              string
	Driver1, Driver2 string
}

func (e *MultiDriverError) Error() string {
	return fmt.Sprintf("sta: net %s driven by both %s and %s", e.Net, e.Driver1, e.Driver2)
}

// compactGraph is the levelized form of a design the parallel engine runs
// on: net and gate names interned to dense int32 IDs, fanin arcs and fanout
// dependency edges in CSR layout, gates bucketed by topological level, and
// every per-net quantity (load, pin caps, wire parasitics) in flat arrays —
// no map lookup survives into the propagation loop.
type compactGraph struct {
	// Net interning. netName[id] inverts netID.
	netID   map[string]int32
	netName []string

	// Per-net electrical state, indexed by net ID. load and pinCap repeat
	// Timer.netLoads' summation order exactly, so arc lookups see
	// bit-identical values on both engines.
	load    []float64
	pinCap  []float64
	wireCap []float64
	wireRes []float64

	// Per-gate topology. Inputs are CSR: gate g's fanin arcs live at
	// inNet/inArc/inCap[inStart[g]:inStart[g+1]], in cell InputPins order
	// — the same arc iteration order as the sequential walk, which keeps
	// worst-arrival tie-breaking identical. inCap is the receiving pin's
	// capacitance.
	gateName []string
	cellOf   []*liberty.Cell
	gateOut  []int32
	inStart  []int32
	inNet    []int32
	inArc    []*liberty.Arc
	inCap    []float64

	// driverOf[id] is the gate driving net id, -1 when no gate does
	// (primary inputs, undriven nets).
	driverOf []int32

	// Levelization: levelOrder holds gate indices level-major (ascending
	// gate index within a level); level l spans
	// levelOrder[levelStart[l]:levelStart[l+1]]. All fanins of a level-l
	// gate are driven at levels < l, so gates within one level are
	// independent — the parallel engine's unit of work.
	levelStart []int32
	levelOrder []int32
	gateLevel  []int32 // level of each gate index

	// primaryNet[i] is the net ID of Design.Inputs[i].
	primaryNet []int32
}

// intern returns the ID for a net name, creating one on first sight.
func (g *compactGraph) intern(name string) int32 {
	if id, ok := g.netID[name]; ok {
		return id
	}
	id := int32(len(g.netName))
	g.netID[name] = id
	g.netName = append(g.netName, name)
	return id
}

// cellInputs is one library cell's input side, resolved once per build
// rather than once per gate: input pins in InputPins order, the arc from
// each (nil when the cell has none) and each pin's capacitance.
type cellInputs struct {
	cell *liberty.Cell
	pins []string
	arcs []*liberty.Arc
	caps []float64
}

func resolveInputs(cell *liberty.Cell) *cellInputs {
	ci := &cellInputs{cell: cell, pins: cell.InputPins()}
	for _, pin := range ci.pins {
		arc, _ := cell.ArcTo(pin)
		p, _ := cell.Pin(pin)
		ci.arcs = append(ci.arcs, arc)
		ci.caps = append(ci.caps, p.Cap)
	}
	return ci
}

// buildGraph compiles the timer's design and library into the compact
// levelized form. All structural errors — unknown cells, unconnected or
// missing pins, undriven nets, multi-driver nets, combinational loops —
// surface here, before any timing math runs. Its cost is linear in the
// design size.
func (t *Timer) buildGraph() (*compactGraph, error) {
	d := t.Design
	n := len(d.Gates)
	g := &compactGraph{
		netID:    make(map[string]int32, 2*n),
		gateName: make([]string, n),
		cellOf:   make([]*liberty.Cell, n),
		gateOut:  make([]int32, n),
		inStart:  make([]int32, n+1),
	}

	// Primary inputs first, so their IDs are dense and low.
	g.primaryNet = make([]int32, len(d.Inputs))
	for i, p := range d.Inputs {
		g.primaryNet[i] = g.intern(p.Name)
	}

	// Resolve every gate: cell, output net (multi-driver checked), fanin
	// arcs in InputPins order.
	driverOf := make([]int32, 0, 2*n) // net ID -> driving gate, -1 none
	driver := func(net int32) int32 {
		for int32(len(driverOf)) <= net {
			driverOf = append(driverOf, -1)
		}
		return driverOf[net]
	}
	cells := make(map[string]*cellInputs)
	for gi := range d.Gates {
		gate := &d.Gates[gi]
		g.gateName[gi] = gate.Name
		ci, ok := cells[gate.Cell]
		if !ok {
			cell, err := t.Lib.Cell(gate.Cell)
			if err != nil {
				return nil, fmt.Errorf("sta: gate %s: %w", gate.Name, err)
			}
			ci = resolveInputs(cell)
			cells[gate.Cell] = ci
		}
		g.cellOf[gi] = ci.cell
		outNet, ok := gate.Pins["Y"]
		if !ok {
			return nil, fmt.Errorf("sta: gate %s has no output pin Y", gate.Name)
		}
		out := g.intern(outNet)
		if prev := driver(out); prev >= 0 {
			return nil, &MultiDriverError{Net: outNet, Driver1: g.gateName[prev], Driver2: gate.Name}
		}
		driverOf[out] = int32(gi)
		g.gateOut[gi] = out

		for p, inPin := range ci.pins {
			inNet, ok := gate.Pins[inPin]
			if !ok {
				return nil, fmt.Errorf("sta: gate %s pin %s unconnected", gate.Name, inPin)
			}
			if ci.arcs[p] == nil {
				return nil, fmt.Errorf("sta: cell %s has no arc %s->Y", ci.cell.Name, inPin)
			}
			g.inNet = append(g.inNet, g.intern(inNet))
			g.inArc = append(g.inArc, ci.arcs[p])
			g.inCap = append(g.inCap, ci.caps[p])
		}
		g.inStart[gi+1] = int32(len(g.inNet))
	}
	for int32(len(driverOf)) < int32(len(g.netName)) {
		driverOf = append(driverOf, -1)
	}
	g.driverOf = driverOf

	primary := make([]bool, len(g.netName))
	for _, id := range g.primaryNet {
		primary[id] = true
	}

	// Dependency edges (gate -> consuming gate) as fanout CSR, plus
	// in-degrees, checking every consumed net has a source.
	indeg := make([]int32, n)
	foCount := make([]int32, n+1)
	for gi := 0; gi < n; gi++ {
		for k := g.inStart[gi]; k < g.inStart[gi+1]; k++ {
			net := g.inNet[k]
			if primary[net] {
				continue
			}
			drv := driverOf[net]
			if drv < 0 {
				return nil, fmt.Errorf("sta: net %s (input of %s) has no driver", g.netName[net], g.gateName[gi])
			}
			indeg[gi]++
			foCount[drv+1]++
		}
	}
	for i := 0; i < n; i++ {
		foCount[i+1] += foCount[i]
	}
	foGate := make([]int32, foCount[n])
	fill := append([]int32(nil), foCount[:n]...)
	for gi := 0; gi < n; gi++ {
		for k := g.inStart[gi]; k < g.inStart[gi+1]; k++ {
			net := g.inNet[k]
			if primary[net] || driverOf[net] < 0 {
				continue
			}
			drv := driverOf[net]
			foGate[fill[drv]] = int32(gi)
			fill[drv]++
		}
	}

	// Kahn over the dependency edges, tracking the longest-path level of
	// each gate: level(g) = 1 + max(level of fanin drivers).
	level := make([]int32, n)
	queue := make([]int32, 0, n)
	remaining := append([]int32(nil), indeg...)
	for gi := int32(0); gi < int32(n); gi++ {
		if remaining[gi] == 0 {
			queue = append(queue, gi)
		}
	}
	seen := 0
	maxLevel := int32(-1)
	for len(queue) > 0 {
		gi := queue[0]
		queue = queue[1:]
		seen++
		if level[gi] > maxLevel {
			maxLevel = level[gi]
		}
		for k := foCount[gi]; k < foCount[gi+1]; k++ {
			s := foGate[k]
			if lv := level[gi] + 1; lv > level[s] {
				level[s] = lv
			}
			remaining[s]--
			if remaining[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if seen != n {
		return nil, ErrCombinationalLoop
	}

	// Bucket gates by level (counting sort keeps ascending gate index
	// within each level — deterministic at any worker count).
	g.levelStart = make([]int32, maxLevel+2)
	for _, lv := range level {
		g.levelStart[lv+1]++
	}
	for l := int32(0); l <= maxLevel; l++ {
		g.levelStart[l+1] += g.levelStart[l]
	}
	g.levelOrder = make([]int32, n)
	pos := append([]int32(nil), g.levelStart[:maxLevel+1]...)
	for gi := int32(0); gi < int32(n); gi++ {
		lv := level[gi]
		g.levelOrder[pos[lv]] = gi
		pos[lv]++
	}
	g.gateLevel = level

	// Electrical state, summed per net in netLoads' order — wire cap, then
	// couplings in declaration order, then receiver pin caps in gate and
	// InputPins order (the fanin arc order) — so every value is
	// bit-identical to the sequential walk's.
	nn := len(g.netName)
	g.load = make([]float64, nn)
	g.pinCap = make([]float64, nn)
	g.wireCap = make([]float64, nn)
	g.wireRes = make([]float64, nn)
	for id, name := range g.netName {
		g.wireCap[id] = d.NetCaps[name]
		g.load[id] += g.wireCap[id]
		if d.NetRes != nil {
			g.wireRes[id] = d.NetRes[name]
		}
	}
	for _, cp := range d.Couplings {
		if id, ok := g.netID[cp.A]; ok {
			g.load[id] += cp.Cap
		}
		if id, ok := g.netID[cp.B]; ok {
			g.load[id] += cp.Cap
		}
	}
	for k, net := range g.inNet {
		g.load[net] += g.inCap[k]
		g.pinCap[net] += g.inCap[k]
	}
	return g, nil
}

// levels returns the number of levels.
func (g *compactGraph) levels() int { return len(g.levelStart) - 1 }
