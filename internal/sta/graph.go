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
// and gate names resolved to dense int32 IDs, fanin arcs and fanout
// dependency edges in CSR layout, gates bucketed by topological level, and
// every per-net quantity (load, pin caps, wire parasitics) in flat arrays —
// no map lookup survives into the propagation loop. Each run compiles its
// own, times into its arena and hands both to its Result.
type compactGraph struct {
	// Net slots. Primary inputs hold IDs 0..base-1 in declaration order (a
	// repeated name keeps its first ID), and gate gi drives net base+gi, so
	// a net's driver and a gate's output net are arithmetic on base. nets
	// maps each net name to its slot in state, the run's timing arena, and
	// is the map RunCtx returns as Result.Nets — the run's only name index;
	// netID recovers an ID from a slot and netName[id] is the name. state
	// is allocated once, with a slot per primary input and gate, and never
	// resliced; a repeated primary name leaves its slot unused.
	nets    map[string]*NetTiming
	state   []NetTiming
	netName []string
	base    int32

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
	inStart  []int32
	inNet    []int32

	// Levelization: levelOrder holds gate indices level-major (ascending
	// gate index within a level); level l spans
	// levelOrder[levelStart[l]:levelStart[l+1]]. All fanins of a level-l
	// gate are driven at levels < l, so gates within one level are
	// independent — the parallel engine's unit of work.
	levelStart []int32
	levelOrder []int32
	gateLevel  []int32 // level of each gate index

	// inputs are the design's primary inputs as compiled, one per
	// declaration; a repeated name shares its first ID, and its last seed
	// wins.
	inputs []primaryInput
}

// primaryInput is one primary input's net and its seeded timing.
type primaryInput struct {
	net           int32
	arrival, slew float64
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

// cellInputs is one library cell's input side, resolved once per gate
// range rather than once per gate: input pins in InputPins order, the arc
// from each (nil when the cell has none) and each pin's capacitance.
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

// firstError keeps the lowest-indexed of the errors its ranges note, so
// the error a design gets does not depend on which range finished first.
type firstError struct {
	mu  sync.Mutex
	at  int32
	err error
}

func (f *firstError) note(at int32, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil || at < f.at {
		f.at, f.err = at, err
	}
}

// before returns the index of the noted error, or n when there is none.
func (f *firstError) before(n int32) int32 {
	if f.err == nil {
		return n
	}
	return f.at
}

// minParallelCompile is the smallest design whose compile fans out over a
// worker pool; smaller ones compile inline. On a 2-vCPU Xeon, meshes of
// 1,000–2,000 gates compiled no faster at 2 workers than at 1, while
// 4,000–8,000 gates gained 5–20% and 32,000 ~25% (EXPERIMENTS.md
// "Full-chip STA at scale").
const minParallelCompile = 4096

// compile builds the compact levelized form of a design against a
// library. All structural errors — unknown cells, unconnected or missing
// pins, undriven nets, multi-driver nets, gates driving a primary input,
// combinational loops — surface here, before any timing math runs.
//
// The compile writes each net name into the name index once — the
// primary inputs, then each gate's output at its fixed slot — and that
// map is the one the run returns as Result.Nets. With workers > 1 and a
// design of at least minParallelCompile gates, the read-only work fans
// out over contiguous gate ranges: resolving cells and output pins, the
// wire-parasitic reads beside the serial insert, the fanin name lookups
// once no map write is in flight, and the net loads beside the
// levelization. The error is the same at any worker count: the first
// gate with an error and, within it, the first failed check (cell, output
// pin Y, second driver, then each input pin in InputPins order); an
// undriven fanin only when no gate has an error, the first in gate and pin
// order; a combinational loop after that.
func compile(d *netlist.Design, lib *liberty.Library, workers int) (*compactGraph, error) {
	n := int32(len(d.Gates))
	var pool *levelPool
	if n >= minParallelCompile {
		pool = newLevelPool(workers)
		defer pool.close()
	}
	chunks := int32(workers) // used only with a pool, so at least 2
	g := &compactGraph{
		nets:     make(map[string]*NetTiming, len(d.Inputs)+int(n)),
		state:    make([]NetTiming, len(d.Inputs)+int(n)),
		netName:  make([]string, 0, len(d.Inputs)+int(n)),
		gateName: make([]string, n),
		cellIn:   make([]*cellInputs, n),
		inStart:  make([]int32, n+1),
		inputs:   make([]primaryInput, len(d.Inputs)),
	}

	// Primary inputs first, so their IDs are the lowest.
	for i, p := range d.Inputs {
		id, ok := g.lookup(p.Name)
		if !ok {
			id = int32(len(g.netName))
			g.nets[p.Name] = &g.state[id]
			g.netName = append(g.netName, p.Name)
		}
		g.inputs[i] = primaryInput{net: id, arrival: p.Arrival, slew: p.Slew}
	}
	g.base = int32(len(g.netName))
	g.netName = g.netName[:g.base+n]
	nn := g.base + n

	// Each gate's cell and output net name. Every later phase runs only on
	// the gates before the first error found so far, so an error it finds
	// is at a lower gate and wins.
	var bad firstError
	pool.run(n, chunks, func(lo, hi int32) {
		cells := make(map[string]*cellInputs)
		for gi := lo; gi < hi; gi++ {
			gate := &d.Gates[gi]
			g.gateName[gi] = gate.Name
			ci, ok := cells[gate.Cell]
			if !ok {
				cell, err := lib.Cell(gate.Cell)
				if err != nil {
					bad.note(gi, fmt.Errorf("sta: gate %s: %w", gate.Name, err))
					return
				}
				ci = resolveInputs(cell)
				cells[gate.Cell] = ci
			}
			g.cellIn[gi] = ci
			out, ok := gate.Pins["Y"]
			if !ok {
				bad.note(gi, fmt.Errorf("sta: gate %s has no output pin Y", gate.Name))
				return
			}
			g.netName[g.base+gi] = out
		}
	})

	// One map write per gate output, beside the wire-parasitic reads. The
	// map only stops growing when the name is already there.
	g.wireCap = make([]float64, nn)
	g.wireRes = make([]float64, nn)
	limit := bad.before(n)
	pool.beside(func() {
		for gi := int32(0); gi < limit; gi++ {
			name := g.netName[g.base+gi]
			size := len(g.nets)
			g.nets[name] = &g.state[g.base+gi]
			if len(g.nets) == size {
				bad.note(gi, g.collision(gi))
				return
			}
		}
	}, nn, chunks, func(lo, hi int32) {
		for id := lo; id < hi; id++ {
			name := g.netName[id]
			g.wireCap[id] = d.NetCaps[name]
			if d.NetRes != nil {
				g.wireRes[id] = d.NetRes[name]
			}
		}
	})

	// Fanin nets in InputPins order, looked up now that the index is
	// complete. An undriven fanin is kept aside: any gate's error wins.
	limit = bad.before(n)
	for gi := int32(0); gi < limit; gi++ {
		g.inStart[gi+1] = g.inStart[gi] + int32(len(g.cellIn[gi].pins))
	}
	g.inNet = make([]int32, g.inStart[limit])
	var undriven firstError
	pool.run(limit, chunks, func(lo, hi int32) {
		var miss error // the range's first undriven fanin, at arc missAt
		var missAt int32
		defer func() {
			if miss != nil {
				undriven.note(missAt, miss)
			}
		}()
		for gi := lo; gi < hi; gi++ {
			gate, ci, k := &d.Gates[gi], g.cellIn[gi], g.inStart[gi]
			for p, pin := range ci.pins {
				name, ok := gate.Pins[pin]
				if !ok {
					bad.note(gi, fmt.Errorf("sta: gate %s pin %s unconnected", gate.Name, pin))
					return
				}
				if ci.arcs[p] == nil {
					bad.note(gi, fmt.Errorf("sta: cell %s has no arc %s->Y", ci.cell.Name, pin))
					return
				}
				id, ok := g.lookup(name)
				if !ok && miss == nil {
					miss, missAt = fmt.Errorf("sta: net %s (input of %s) has no driver", name, gate.Name), k+int32(p)
				}
				g.inNet[k+int32(p)] = id
			}
		}
	})
	if bad.err != nil {
		return nil, bad.err
	}
	if undriven.err != nil {
		return nil, undriven.err
	}

	// Electrical state, summed per net in the map walk's order — wire cap,
	// then couplings in declaration order, then receiver pin caps in gate
	// and InputPins order (the fanin arc order) — so every value is
	// bit-identical to the sequential walk's. It needs no levels, so it
	// runs beside the levelization.
	var loop error
	pool.beside(func() { loop = g.levelize() }, 1, 1, func(int32, int32) {
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
	})
	if loop != nil {
		return nil, loop
	}
	return g, nil
}

// collision names what already holds gate gi's output net: a primary
// input, or the earlier gate driving it. It runs only on a failed insert,
// so its linear scans cost nothing on a valid design.
func (g *compactGraph) collision(gi int32) error {
	name := g.netName[g.base+gi]
	for _, in := range g.netName[:g.base] {
		if in == name {
			return fmt.Errorf("sta: gate %s drives primary input %s", g.gateName[gi], name)
		}
	}
	prev := int32(0)
	for g.netName[g.base+prev] != name {
		prev++
	}
	return &MultiDriverError{Net: name, Driver1: g.gateName[prev], Driver2: g.gateName[gi]}
}

// levelize buckets the gates by longest-path depth: level(g) = 1 + max
// (level of its fanin drivers), with primary inputs below level 0. A
// depth-first walk from each gate in index order finishes every driver
// before its consumers, in a single pass when the gates come in
// topological order, as generated and most parsed netlists do. A gate
// met again while its own walk is open closes a combinational loop.
func (g *compactGraph) levelize() error {
	n := int32(len(g.gateName))
	const (
		unseen = iota
		open
		done
	)
	mark := make([]uint8, n)
	level := make([]int32, n)
	maxLevel := int32(-1)
	var path []int32 // open gates, each followed by the drivers it waits on
	for root := int32(0); root < n; root++ {
		if mark[root] == done {
			continue
		}
		path = append(path[:0], root)
		for len(path) > 0 {
			gi := path[len(path)-1]
			if mark[gi] == done { // finished from a later entry on the path
				path = path[:len(path)-1]
				continue
			}
			mark[gi] = open
			lv, ready := int32(0), true
			for _, net := range g.inNet[g.inStart[gi]:g.inStart[gi+1]] {
				if net < g.base {
					continue // primary input
				}
				switch drv := net - g.base; mark[drv] {
				case done:
					lv = max(lv, level[drv]+1)
				case open:
					return ErrCombinationalLoop
				default:
					path = append(path, drv)
					ready = false
				}
			}
			if ready {
				level[gi], mark[gi] = lv, done
				maxLevel = max(maxLevel, lv)
				path = path[:len(path)-1]
			}
		}
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
	for gi := int32(0); gi < n; gi++ {
		lv := level[gi]
		g.levelOrder[pos[lv]] = gi
		pos[lv]++
	}
	g.gateLevel = level
	return nil
}

// levels returns the number of levels.
func (g *compactGraph) levels() int { return len(g.levelStart) - 1 }
