package sta

import (
	"fmt"
	"sync"
	"unsafe"

	"noisewave/internal/liberty"
	"noisewave/internal/netlist"
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

// compactGraph is the levelized form of a design the engine runs on: net
// and gate names interned to dense int32 IDs, fanin arcs and fanout
// dependency edges in CSR layout, gates bucketed by topological level, and
// every per-net quantity (load, pin caps, wire parasitics) in flat arrays —
// no map lookup survives into the propagation loop. Each run compiles its
// own, times into its arena and hands both to its Result.
type compactGraph struct {
	// Net interning. nets maps each net name to its slot in state, the
	// run's timing arena, and is the map RunCtx returns as Result.Nets —
	// the run's only name index; netID recovers an ID from a slot and
	// netName[id] is the name. state is allocated once, at its final size
	// (primary inputs plus gates: the most nets a valid design has), and
	// never resliced.
	nets    map[string]*NetTiming
	state   []NetTiming
	netName []string

	// Per-net electrical state, indexed by net ID. load and pinCap repeat
	// the map walk's summation order exactly, so arc lookups see
	// bit-identical values on both engines.
	load    []float64
	pinCap  []float64
	wireCap []float64
	wireRes []float64

	// Per-gate topology. Inputs are CSR: gate g's fanin nets live at
	// inNet[inStart[g]:inStart[g+1]], in cell InputPins order — the same
	// arc iteration order as the sequential walk, which keeps
	// worst-arrival tie-breaking identical — and cellIn[g] holds the arc
	// and pin cap of each, in the same order.
	gateName []string
	cellIn   []*cellInputs
	gateOut  []int32
	inStart  []int32
	inNet    []int32

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

	// inputs are the design's primary inputs as compiled. Their nets are
	// interned first, so primary net IDs are the lowest.
	inputs []primaryInput
}

// primaryInput is one primary input's net and its seeded timing.
type primaryInput struct {
	net           int32
	arrival, slew float64
}

// intern returns the ID for a net name, creating one (with no driver yet)
// on first sight. IDs follow first sight; the first len(state) names take
// arena slots and the rest go to spill. Only a design with an undriven
// net has names past the arena, and compile rejects it.
func (g *compactGraph) intern(name string, spill map[string]int32) int32 {
	if p, ok := g.nets[name]; ok {
		id, _ := g.netID(p)
		return id
	}
	if id, ok := spill[name]; ok {
		return id
	}
	id := int32(len(g.netName))
	if int(id) < len(g.state) {
		g.nets[name] = &g.state[id]
	} else {
		spill[name] = id
	}
	g.netName = append(g.netName, name)
	g.driverOf = append(g.driverOf, -1)
	return id
}

// netID recovers a net's ID from its slot pointer (a value of nets, or of
// the Result.Nets map it becomes) by pointer difference over the arena.
// This is the package's only unsafe, and it is sound: state is allocated
// once at its final size and never resliced or appended to, and Go does
// not move heap objects, so a slot's address fixes its index for as long
// as the graph lives. The range and &state[id] == p checks turn any
// pointer that is not one of the arena's slots — an entry a caller put
// into Result.Nets — into an unknown name, never an out-of-range index.
func (g *compactGraph) netID(p *NetTiming) (int32, bool) {
	if p == nil || len(g.state) == 0 {
		return -1, false
	}
	off := uintptr(unsafe.Pointer(p)) - uintptr(unsafe.Pointer(&g.state[0]))
	id := off / unsafe.Sizeof(NetTiming{})
	if id >= uintptr(len(g.state)) || &g.state[id] != p {
		return -1, false
	}
	return int32(id), true
}

// lookup returns the ID of a named net, false when the graph has none.
func (g *compactGraph) lookup(name string) (int32, bool) {
	return g.netID(g.nets[name])
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

// compile builds the compact levelized form of a design against a
// library. All structural errors — unknown cells, unconnected or missing
// pins, undriven nets, multi-driver nets, combinational loops — surface
// here, before any timing math runs. Its cost is linear in the design
// size, and every array is sized up front: a valid design has at most one
// net per primary input and gate output, and at most one fanin arc per
// connected pin. The name index it builds is the one the run returns as
// Result.Nets. With workers > 1 the wire parasitics are read beside the
// levelization.
func compile(d *netlist.Design, lib *liberty.Library, workers int) (*compactGraph, error) {
	n := len(d.Gates)
	nets := len(d.Inputs) + n
	pins := 0
	for gi := range d.Gates {
		pins += len(d.Gates[gi].Pins)
	}
	g := &compactGraph{
		nets:     make(map[string]*NetTiming, nets),
		state:    make([]NetTiming, nets),
		netName:  make([]string, 0, nets),
		gateName: make([]string, n),
		cellIn:   make([]*cellInputs, n),
		gateOut:  make([]int32, n),
		inStart:  make([]int32, n+1),
		inNet:    make([]int32, 0, pins),
		driverOf: make([]int32, 0, nets),
	}

	// Primary inputs first, so their IDs are dense and low.
	spill := make(map[string]int32)
	g.inputs = make([]primaryInput, len(d.Inputs))
	for i, p := range d.Inputs {
		g.inputs[i] = primaryInput{net: g.intern(p.Name, spill), arrival: p.Arrival, slew: p.Slew}
	}

	// Resolve every gate: cell, output net (multi-driver checked), fanin
	// nets in InputPins order.
	cells := make(map[string]*cellInputs)
	for gi := range d.Gates {
		gate := &d.Gates[gi]
		g.gateName[gi] = gate.Name
		ci, ok := cells[gate.Cell]
		if !ok {
			cell, err := lib.Cell(gate.Cell)
			if err != nil {
				return nil, fmt.Errorf("sta: gate %s: %w", gate.Name, err)
			}
			ci = resolveInputs(cell)
			cells[gate.Cell] = ci
		}
		g.cellIn[gi] = ci
		outNet, ok := gate.Pins["Y"]
		if !ok {
			return nil, fmt.Errorf("sta: gate %s has no output pin Y", gate.Name)
		}
		out := g.intern(outNet, spill)
		if prev := g.driverOf[out]; prev >= 0 {
			return nil, &MultiDriverError{Net: outNet, Driver1: g.gateName[prev], Driver2: gate.Name}
		}
		g.driverOf[out] = int32(gi)
		g.gateOut[gi] = out

		for p, inPin := range ci.pins {
			inNet, ok := gate.Pins[inPin]
			if !ok {
				return nil, fmt.Errorf("sta: gate %s pin %s unconnected", gate.Name, inPin)
			}
			if ci.arcs[p] == nil {
				return nil, fmt.Errorf("sta: cell %s has no arc %s->Y", ci.cell.Name, inPin)
			}
			g.inNet = append(g.inNet, g.intern(inNet, spill))
		}
		g.inStart[gi+1] = int32(len(g.inNet))
	}
	driverOf := g.driverOf

	// Wire parasitics are per-net reads of the design's maps, independent
	// of the levelization below.
	nn := len(g.netName)
	g.wireCap = make([]float64, nn)
	g.wireRes = make([]float64, nn)
	wires := func() {
		for id, name := range g.netName {
			g.wireCap[id] = d.NetCaps[name]
			if d.NetRes != nil {
				g.wireRes[id] = d.NetRes[name]
			}
		}
	}
	var wired sync.WaitGroup
	defer wired.Wait()
	if workers > 1 {
		wired.Add(1)
		go func() {
			defer wired.Done()
			wires()
		}()
	} else {
		wires()
	}

	primary := make([]bool, len(g.netName))
	for _, in := range g.inputs {
		primary[in.net] = true
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
	for gi := int32(0); gi < int32(n); gi++ {
		if indeg[gi] == 0 {
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
			indeg[s]--
			if indeg[s] == 0 {
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

	// Electrical state, summed per net in the map walk's order — wire cap,
	// then couplings in declaration order, then receiver pin caps in gate
	// and InputPins order (the fanin arc order) — so every value is
	// bit-identical to the sequential walk's.
	wired.Wait()
	g.load = make([]float64, nn)
	g.pinCap = make([]float64, nn)
	for id, c := range g.wireCap {
		g.load[id] += c
	}
	for _, cp := range d.Couplings {
		if id, ok := g.lookup(cp.A); ok {
			g.load[id] += cp.Cap
		}
		if id, ok := g.lookup(cp.B); ok {
			g.load[id] += cp.Cap
		}
	}
	for gi, ci := range g.cellIn {
		for p, c := range ci.caps {
			net := g.inNet[g.inStart[gi]+int32(p)]
			g.load[net] += c
			g.pinCap[net] += c
		}
	}
	return g, nil
}

// levels returns the number of levels.
func (g *compactGraph) levels() int { return len(g.levelStart) - 1 }
