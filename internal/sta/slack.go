package sta

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"noisewave/internal/wave"
)

// RequiredTimes holds the required times of one run, propagated backward
// from output constraints, and reads them against the arrivals in the
// run's arena.
type RequiredTimes struct {
	graph *compactGraph
	// req holds each net ID's required time per edge, indexed by
	// wave.Edge: math.Inf(1) where nothing constrains it.
	req         [][2]float64
	constraints map[string]float64
}

// edges lists both edges, rise first: the order every slack scan and
// report row takes.
var edges = [2]wave.Edge{wave.Rising, wave.Falling}

// Slack returns arrival-vs-required slack of a net for an edge (positive =
// meets timing). The second return is false when the run has no net of
// that name, or the edge has no arrival or no required time.
func (r *RequiredTimes) Slack(net string, edge wave.Edge) (float64, bool) {
	id, ok := r.graph.lookup(net)
	if !ok {
		return 0, false
	}
	return r.slack(id, edge)
}

// slack is Slack by net ID.
func (r *RequiredTimes) slack(id int32, edge wave.Edge) (float64, bool) {
	pt := r.graph.state[id].timingFor(edge)
	req := r.req[id][edge]
	if !pt.Valid || math.IsInf(req, 1) {
		return 0, false
	}
	return req - pt.Arrival, true
}

// ComputeRequired propagates required times backward from per-output
// constraints (seconds). Outputs missing from the map are unconstrained,
// and a name the run has no net for constrains nothing. It walks res's own
// graph in reverse level order and reads the timing the run stamped into
// its arena, converted noisy edges included, under the run's wire model —
// so slack agrees with the arrivals res reports, however the timer's
// fields or annotations change afterwards. res must come from RunCtx; it
// is only read, so concurrent calls on one Result are safe. The result
// keeps constraints for Report.
func (t *Timer) ComputeRequired(res *Result, constraints map[string]float64) (*RequiredTimes, error) {
	g := res.graph
	if g == nil {
		return nil, errors.New("sta: ComputeRequired needs a Result from RunCtx")
	}
	req := make([][2]float64, len(g.netName))
	for i := range req {
		req[i] = [2]float64{math.Inf(1), math.Inf(1)}
	}
	for name, rt := range constraints {
		if id, ok := g.lookup(name); ok {
			req[id] = [2]float64{rt, rt}
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
		outReq := req[g.base+gi]
		if math.IsInf(outReq[wave.Rising], 1) && math.IsInf(outReq[wave.Falling], 1) {
			continue
		}
		load := g.load[g.base+gi]
		lo, arcs := g.inStart[gi], g.cellIn[gi].arcs
		for k := lo; k < g.inStart[gi+1]; k++ {
			inID := g.inNet[k]
			for _, inEdge := range edges {
				it := g.state[inID].timingFor(inEdge)
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
				if cand := outReq[outEdge] - delay - wDelay; cand < req[inID][inEdge] {
					req[inID][inEdge] = cand
				}
			}
		}
	}
	return &RequiredTimes{graph: g, req: req, constraints: constraints}, nil
}

// SlackRow is one (net, edge) line of a slack report, times in seconds.
type SlackRow struct {
	Net      string
	Edge     wave.Edge
	Arrival  float64
	Required float64
	Slack    float64
}

// Report returns the slack rows the STA job and cmd/noisesta print: one
// per constrained net and edge that has a slack, nets in name order and
// rise before fall, Required the constraint as given.
func (r *RequiredTimes) Report() []SlackRow {
	names := make([]string, 0, len(r.constraints))
	for name := range r.constraints {
		names = append(names, name)
	}
	sort.Strings(names)
	var rows []SlackRow
	for _, name := range names {
		for _, e := range edges {
			if s, ok := r.Slack(name, e); ok {
				at := r.graph.nets[name].timingFor(e).Arrival
				rows = append(rows, SlackRow{Net: name, Edge: e, Arrival: at, Required: r.constraints[name], Slack: s})
			}
		}
	}
	return rows
}

// WorstSlack returns the Report row with the least slack: the constrained
// net and edge that miss their requirement by the most, or meet it by the
// least. Ties go to the earlier row in Report order; ok is false when no
// constrained net has a slack. Unconstrained nets are not candidates:
// slack along a path agrees only to rounding, so a scan over every net
// would name whichever upstream net of the critical path rounded lowest.
func (r *RequiredTimes) WorstSlack() (worst SlackRow, ok bool) {
	for _, row := range r.Report() {
		if !ok || row.Slack < worst.Slack {
			worst, ok = row, true
		}
	}
	return worst, ok
}
