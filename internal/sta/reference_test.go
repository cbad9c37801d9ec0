package sta

import (
	"fmt"
	"math"
	"sort"

	"noisewave/internal/liberty"
	"noisewave/internal/netlist"
	"noisewave/internal/telemetry"
	"noisewave/internal/wave"
)

// This file keeps the original map-based timer as the oracle the compiled
// graph is tested against: the forward walk (RunReference), the backward
// walk (computeRequiredReference) and the string-keyed helpers they share.
// Both read t.Noise live rather than snapshotting, fit each annotated net
// lazily at its first consumer, and perform per-net map lookups throughout.

// RunReference is the original sequential map-based walk, kept as the
// equivalence oracle the levelized parallel engine is tested against and
// as the pre-levelized baseline of BenchmarkMesh. reg, if non-nil,
// observes the run as RunOptions.Telemetry does.
func (t *Timer) RunReference(reg *telemetry.Registry) (*Result, error) {
	defer reg.Timer("sta.run_seconds").Start()()
	gatesTimed := reg.Counter("sta.gates_timed")
	conversions := reg.Counter("sta.noise_conversions")
	d := t.Design
	res := &Result{Nets: make(map[string]*NetTiming)}
	memo := make(map[noiseKey]noiseVal)
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
			inTiming, err := t.inputTiming(res, memo, netOf(inNet), inNet, cell, arc, load, conversions)
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

// computeRequiredReference is the original map-walk ComputeRequired: it
// re-levelizes and re-sums the loads from the timer's current Design and
// Lib, and recomputes every arc's input timing through inputTiming. Either
// forward pass stamps each fit it made into res, so the memo starts from
// the annotated edges res carries and the backward pass reuses those fits
// rather than refitting. It returns the required times by net name: every
// net a gate reads or drives, and every constrained name.
func (t *Timer) computeRequiredReference(res *Result, constraints map[string]float64) (map[string]*[2]float64, error) {
	d := t.Design
	memo := make(map[noiseKey]noiseVal)
	for net, ann := range t.Noise {
		if nt, ok := res.Nets[net]; ok {
			if pt := nt.timingFor(ann.Edge); pt.Valid {
				memo[noiseKey{net: net, edge: ann.Edge}] = noiseVal{arrival: pt.Arrival, trans: pt.Trans}
			}
		}
	}
	req := make(map[string]*[2]float64)
	get := func(net string) *[2]float64 {
		n, ok := req[net]
		if !ok {
			n = &[2]float64{math.Inf(1), math.Inf(1)}
			req[net] = n
		}
		return n
	}
	for out, rt := range constraints {
		*get(out) = [2]float64{rt, rt}
	}

	order, err := t.levelize()
	if err != nil {
		return nil, err
	}
	loads, pinCaps, err := t.netLoads()
	if err != nil {
		return nil, err
	}
	gatesByName := make(map[string]*netlist.Gate, len(d.Gates))
	for i := range d.Gates {
		gatesByName[d.Gates[i].Name] = &d.Gates[i]
	}

	// Walk gates in reverse topological order: the output's requirement
	// constrains each input through the arc delay evaluated at the same
	// conditions the forward pass used, wire transform included.
	for i := len(order) - 1; i >= 0; i-- {
		g := gatesByName[order[i]]
		cell, err := t.Lib.Cell(g.Cell)
		if err != nil {
			return nil, fmt.Errorf("sta: gate %s: %w", g.Name, err)
		}
		outNet, ok := g.Pins["Y"]
		if !ok {
			return nil, fmt.Errorf("sta: gate %s has no output pin Y", g.Name)
		}
		outReq := get(outNet)
		load := loads[outNet]
		for _, inPin := range cell.InputPins() {
			inNet := g.Pins[inPin]
			arc, ok := cell.ArcTo(inPin)
			if !ok {
				continue
			}
			inTiming, err := t.inputTiming(res, memo, resNet(res, inNet), inNet, cell, arc, load, nil)
			if err != nil {
				return nil, err
			}
			inReq := get(inNet)
			for _, inEdge := range []wave.Edge{wave.Rising, wave.Falling} {
				it := inTiming.timingFor(inEdge)
				if !it.Valid {
					continue
				}
				inTrans := it.Trans
				wDelay := 0.0
				if t.Wire == ElmoreWire {
					var wTrans float64
					wDelay, wTrans = wireDelay(netRes(d, inNet),
						d.NetCaps[inNet], pinCaps[inNet], inTrans)
					inTrans = wTrans
				}
				delay, _, outEdge, err := arc.Delay(inEdge, inTrans, load)
				if err != nil {
					return nil, err
				}
				cand := outReq[outEdge] - delay - wDelay
				if cand < inReq[inEdge] {
					inReq[inEdge] = cand
				}
			}
		}
	}
	return req, nil
}

// slackReference is the map-based Slack that RequiredTimes replaced: the
// required time by name against res.Nets, two map lookups per call.
func slackReference(req map[string]*[2]float64, res *Result, net string, edge wave.Edge) (float64, bool) {
	nr, ok := req[net]
	if !ok {
		return 0, false
	}
	nt, ok := res.Nets[net]
	if !ok {
		return 0, false
	}
	pt := nt.timingFor(edge)
	r := nr[edge]
	if !pt.Valid || math.IsInf(r, 1) {
		return 0, false
	}
	return r - pt.Arrival, true
}

// worstSlackReference is WorstSlack over the map walk's required times:
// the minimum slackReference over the constrained names, scanned in name
// order with rise before fall, ties to the first.
func worstSlackReference(req map[string]*[2]float64, res *Result, constraints map[string]float64) (net string, edge wave.Edge, slack float64, ok bool) {
	names := make([]string, 0, len(constraints))
	for name := range constraints {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, e := range []wave.Edge{wave.Rising, wave.Falling} {
			if s, valid := slackReference(req, res, name, e); valid && (!ok || s < slack) {
				net, edge, slack, ok = name, e, s, true
			}
		}
	}
	return net, edge, slack, ok
}

// inputTiming returns the effective timing of a net as seen by a receiving
// gate: the propagated timing, unless the net carries a noise annotation —
// in which case the annotation's fit replaces the propagated values for
// the annotated edge. The fit is memoized per (net, edge) in memo and
// counted in conversions (if non-nil) only when it runs, and the converted
// timing is stamped into the result's net entry (keeping the path
// back-pointers) so reported arrivals agree with what downstream gates saw.
func (t *Timer) inputTiming(res *Result, memo map[noiseKey]noiseVal, base *NetTiming, net string, cell *liberty.Cell, arc *liberty.Arc, load float64, conversions *telemetry.Counter) (*NetTiming, error) {
	ann, ok := t.Noise[net]
	if !ok {
		return base, nil
	}
	key := noiseKey{net: net, edge: ann.Edge}
	v, ok := memo[key]
	if !ok {
		var err error
		v.arrival, v.trans, err = t.convert(net, ann, base, cell, arc, load)
		if err != nil {
			return nil, err
		}
		conversions.Inc()
		memo[key] = v
	}
	if nt, ok := res.Nets[net]; ok {
		pt := nt.timingFor(ann.Edge)
		pt.Valid = true
		pt.Arrival, pt.Early, pt.Trans = v.arrival, v.arrival, v.trans
	}
	eff := *base
	*eff.timingFor(ann.Edge) = PinTiming{Valid: true, Arrival: v.arrival, Early: v.arrival, Trans: v.trans}
	return &eff, nil
}

// noiseKey identifies one annotated (net, edge) conversion.
type noiseKey struct {
	net  string
	edge wave.Edge
}

// netLoads computes the capacitive load on every net — receiver pin caps +
// annotated wire cap + declared coupling caps (grounded-aggressor
// approximation) — and, separately, the sum of receiver pin caps per net,
// which the Elmore wire model needs on its own (delay = ln2·R·(Cw/2 +
// ΣCpins), so lumping the wire cap into the pin term would double-count).
func (t *Timer) netLoads() (loads, pinCaps map[string]float64, err error) {
	loads = make(map[string]float64)
	pinCaps = make(map[string]float64)
	for net, c := range t.Design.NetCaps {
		loads[net] += c
	}
	for _, cp := range t.Design.Couplings {
		loads[cp.A] += cp.Cap
		loads[cp.B] += cp.Cap
	}
	for _, g := range t.Design.Gates {
		cell, err := t.Lib.Cell(g.Cell)
		if err != nil {
			return nil, nil, fmt.Errorf("sta: gate %s: %w", g.Name, err)
		}
		for _, pin := range cell.InputPins() {
			net, ok := g.Pins[pin]
			if !ok {
				continue
			}
			p, _ := cell.Pin(pin)
			loads[net] += p.Cap
			pinCaps[net] += p.Cap
		}
	}
	return loads, pinCaps, nil
}

// levelize returns gates in topological order (Kahn's algorithm over the
// net dependency graph).
func (t *Timer) levelize() ([]string, error) {
	d := t.Design
	driver := make(map[string]string) // net -> driving gate
	for _, g := range d.Gates {
		if out, ok := g.Pins["Y"]; ok {
			if prev, dup := driver[out]; dup {
				return nil, &MultiDriverError{Net: out, Driver1: prev, Driver2: g.Name}
			}
			driver[out] = g.Name
		}
	}
	primary := make(map[string]bool)
	for _, p := range d.Inputs {
		primary[p.Name] = true
	}
	// Dependency edges: gate A -> gate B when A drives one of B's inputs.
	indeg := make(map[string]int)
	succ := make(map[string][]string)
	for _, g := range d.Gates {
		indeg[g.Name] = 0
	}
	for _, g := range d.Gates {
		for pin, net := range g.Pins {
			if pin == "Y" {
				continue
			}
			if primary[net] {
				continue
			}
			drv, ok := driver[net]
			if !ok {
				return nil, fmt.Errorf("sta: net %s (input of %s) has no driver", net, g.Name)
			}
			succ[drv] = append(succ[drv], g.Name)
			indeg[g.Name]++
		}
	}
	var queue []string
	for name, deg := range indeg {
		if deg == 0 {
			queue = append(queue, name)
		}
	}
	sort.Strings(queue) // deterministic order
	var order []string
	for len(queue) > 0 {
		g := queue[0]
		queue = queue[1:]
		order = append(order, g)
		next := succ[g]
		sort.Strings(next)
		for _, s := range next {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != len(d.Gates) {
		return nil, ErrCombinationalLoop
	}
	return order, nil
}

// netRes returns the annotated wire resistance of a net (Ω), zero when the
// netlist carries none.
func netRes(d *netlist.Design, net string) float64 {
	if d.NetRes == nil {
		return 0
	}
	return d.NetRes[net]
}

// resNet fetches (or creates an empty) net timing from a result.
func resNet(res *Result, name string) *NetTiming {
	if n, ok := res.Nets[name]; ok {
		return n
	}
	return &NetTiming{}
}
