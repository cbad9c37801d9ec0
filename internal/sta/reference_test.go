package sta

import (
	"fmt"

	"noisewave/internal/netlist"
	"noisewave/internal/wave"
)

// RunReference is the original sequential map-based walk, kept as the
// equivalence oracle the levelized parallel engine is tested against and
// as the pre-levelized baseline of BenchmarkMesh. It reads t.Noise live
// rather than snapshotting and performs per-net map lookups throughout.
func (t *Timer) RunReference() (*Result, error) {
	defer t.Telemetry.Timer("sta.run_seconds").Start()()
	gatesTimed := t.Telemetry.Counter("sta.gates_timed")
	d := t.Design
	res := &Result{
		Nets:      make(map[string]*NetTiming),
		noiseConv: make(map[noiseKey]noiseVal),
	}
	netOf := func(name string) *NetTiming {
		n, ok := res.Nets[name]
		if !ok {
			n = &NetTiming{}
			res.Nets[name] = n
		}
		return n
	}

	// Primary inputs arrive with both edges.
	for _, p := range d.Inputs {
		n := netOf(p.Name)
		n.Rise = PinTiming{Valid: true, Arrival: p.Arrival, Early: p.Arrival, Trans: p.Slew}
		n.Fall = PinTiming{Valid: true, Arrival: p.Arrival, Early: p.Arrival, Trans: p.Slew}
	}

	order, err := t.levelize()
	if err != nil {
		return nil, err
	}
	res.Order = order

	loads, pinCaps, err := t.netLoads()
	if err != nil {
		return nil, err
	}

	gatesByName := make(map[string]*netlist.Gate, len(d.Gates))
	for i := range d.Gates {
		gatesByName[d.Gates[i].Name] = &d.Gates[i]
	}

	for _, gname := range order {
		gatesTimed.Inc()
		g := gatesByName[gname]
		cell, err := t.Lib.Cell(g.Cell)
		if err != nil {
			return nil, fmt.Errorf("sta: gate %s: %w", g.Name, err)
		}
		outNet, ok := g.Pins["Y"]
		if !ok {
			return nil, fmt.Errorf("sta: gate %s has no output pin Y", g.Name)
		}
		load := loads[outNet]
		out := netOf(outNet)
		for _, inPin := range cell.InputPins() {
			inNet, ok := g.Pins[inPin]
			if !ok {
				return nil, fmt.Errorf("sta: gate %s pin %s unconnected", g.Name, inPin)
			}
			arc, ok := cell.ArcTo(inPin)
			if !ok {
				return nil, fmt.Errorf("sta: cell %s has no arc %s->Y", cell.Name, inPin)
			}
			inTiming, err := t.inputTiming(res, netOf(inNet), inNet, cell, arc, load)
			if err != nil {
				return nil, fmt.Errorf("sta: gate %s input %s: %w", g.Name, inNet, err)
			}
			for _, inEdge := range []wave.Edge{wave.Rising, wave.Falling} {
				it := inTiming.timingFor(inEdge)
				if !it.Valid {
					continue
				}
				inArr, inTrans := it.Arrival, it.Trans
				if t.Wire == ElmoreWire {
					wDelay, wTrans := wireDelay(netRes(d, inNet),
						d.NetCaps[inNet], pinCaps[inNet], inTrans)
					inArr += wDelay
					inTrans = wTrans
				}
				delay, outTrans, outEdge, err := arc.Delay(inEdge, inTrans, load)
				if err != nil {
					return nil, fmt.Errorf("sta: gate %s: %w", g.Name, err)
				}
				cand := inArr + delay
				// Early arrival through the same arc: the minimum input
				// plus the (same-condition) delay. Wire delay applies to
				// both bounds.
				candEarly := it.Early + (inArr - it.Arrival) + delay
				ot := out.timingFor(outEdge)
				if !ot.Valid {
					*ot = PinTiming{
						Valid: true, Arrival: cand, Early: candEarly, Trans: outTrans,
						FromNet: inNet, FromEdge: inEdge, ViaGate: g.Name,
					}
					continue
				}
				if cand > ot.Arrival {
					early := ot.Early // keep the running minimum
					*ot = PinTiming{
						Valid: true, Arrival: cand, Early: early, Trans: outTrans,
						FromNet: inNet, FromEdge: inEdge, ViaGate: g.Name,
					}
				}
				if candEarly < ot.Early {
					ot.Early = candEarly
				}
			}
		}
	}
	return res, nil
}
