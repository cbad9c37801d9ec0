package sta

import (
	"errors"
	"fmt"
	"math"

	"noisewave/internal/wave"
)

// RequiredTimes holds per-net required arrival times computed by backward
// propagation from output constraints, and the resulting slacks.
type RequiredTimes struct {
	// Required[net] is the required time per edge (math.Inf(1) where
	// unconstrained).
	Required map[string]*NetRequired
}

// NetRequired carries both edges of a net's required time.
type NetRequired struct {
	Rise, Fall float64
}

// forEdge returns a pointer to the edge's required time.
func (n *NetRequired) forEdge(e wave.Edge) *float64 {
	if e == wave.Rising {
		return &n.Rise
	}
	return &n.Fall
}

// Slack returns arrival-vs-required slack of a net for an edge (positive =
// meets timing). The second return is false when either side is missing.
func (r *RequiredTimes) Slack(res *Result, net string, edge wave.Edge) (float64, bool) {
	nr, ok := r.Required[net]
	if !ok {
		return 0, false
	}
	nt, ok := res.Nets[net]
	if !ok {
		return 0, false
	}
	pt := nt.timingFor(edge)
	req := *nr.forEdge(edge)
	if !pt.Valid || math.IsInf(req, 1) {
		return 0, false
	}
	return req - pt.Arrival, true
}

// ComputeRequired propagates required times backward from per-output
// constraints (seconds). Outputs missing from the map are unconstrained.
// It walks res's own graph in reverse level order and reads the timing the
// run stamped into its arena, converted noisy edges included, under the
// run's wire model — so slack agrees with the arrivals res reports, however
// the timer's fields or annotations change afterwards. res must come from
// RunCtx or Run; it is only read, so concurrent calls on one Result are
// safe.
func (t *Timer) ComputeRequired(res *Result, constraints map[string]float64) (*RequiredTimes, error) {
	g := res.graph
	if g == nil {
		return nil, errors.New("sta: ComputeRequired needs a Result from RunCtx")
	}
	req := make([]NetRequired, len(g.netName))
	for i := range req {
		req[i] = NetRequired{Rise: math.Inf(1), Fall: math.Inf(1)}
	}

	// Report every net a gate reads or drives, plus every constrained name:
	// a primary input no gate reads has no requirement unless constrained.
	// Primary net IDs are the lowest, so read needs only that many entries.
	read := make([]bool, len(g.inputs))
	for _, id := range g.inNet {
		if int(id) < len(read) {
			read[id] = true
		}
	}
	out := &RequiredTimes{Required: make(map[string]*NetRequired, len(req))}
	for id, name := range g.netName {
		if id >= len(read) || read[id] || g.driverOf[id] >= 0 {
			out.Required[name] = &req[id]
		}
	}
	for name, rt := range constraints {
		if id, ok := g.netID[name]; ok {
			req[id] = NetRequired{Rise: rt, Fall: rt}
			out.Required[name] = &req[id]
		} else {
			out.Required[name] = &NetRequired{Rise: rt, Fall: rt}
		}
	}

	// Every consumer of a gate's output sits at a higher level, so the
	// output's requirement is final when the reverse walk reaches the gate.
	// It constrains each input through the arc delay evaluated at the same
	// conditions the forward pass used — including the ElmoreWire
	// transform: the arc delay is looked up at the wire-degraded
	// transition, and the wire delay itself is charged to the input net, so
	// slack stays constant along a path whichever wire model is active. An
	// output unconstrained on both edges tightens nothing (∞ − delay never
	// wins a min), so its gate is skipped.
	for i := len(g.levelOrder) - 1; i >= 0; i-- {
		gi := g.levelOrder[i]
		outReq := &req[g.gateOut[gi]]
		if math.IsInf(outReq.Rise, 1) && math.IsInf(outReq.Fall, 1) {
			continue
		}
		load := g.load[g.gateOut[gi]]
		lo, arcs := g.inStart[gi], g.cellIn[gi].arcs
		for k := lo; k < g.inStart[gi+1]; k++ {
			inID := g.inNet[k]
			for _, inEdge := range []wave.Edge{wave.Rising, wave.Falling} {
				it := res.state[inID].timingFor(inEdge)
				if !it.Valid {
					continue
				}
				inTrans := it.Trans
				wDelay := 0.0
				if res.wire == ElmoreWire {
					wDelay, inTrans = wireDelay(g.wireRes[inID], g.wireCap[inID], g.pinCap[inID], inTrans)
				}
				delay, _, outEdge, err := arcs[k-lo].Delay(inEdge, inTrans, load)
				if err != nil {
					return nil, fmt.Errorf("sta: gate %s: %w", g.gateName[gi], err)
				}
				cand := *outReq.forEdge(outEdge) - delay - wDelay
				if slot := req[inID].forEdge(inEdge); cand < *slot {
					*slot = cand
				}
			}
		}
	}
	return out, nil
}

// WorstSlack scans all constrained nets for the minimum slack. Ties —
// routine, since slack is constant along a single path — break toward the
// lexicographically last net name, so the reported net is deterministic
// (and, with the conventional input-then-output naming, an endpoint rather
// than the primary input feeding it).
func (r *RequiredTimes) WorstSlack(res *Result) (net string, edge wave.Edge, slack float64, ok bool) {
	slack = math.Inf(1)
	for name := range r.Required {
		for _, e := range []wave.Edge{wave.Rising, wave.Falling} {
			s, valid := r.Slack(res, name, e)
			if !valid {
				continue
			}
			if s < slack || (s == slack && name > net) {
				net, edge, slack, ok = name, e, s, true
			}
		}
	}
	return net, edge, slack, ok
}
