// Package sta is a gate-level static timing engine built on the NLDM
// library layer: topological arrival propagation with rise/fall edges,
// per-net loading (pin caps + wire caps + coupling caps), critical-path
// extraction, and a noise-aware mode in which crosstalk-distorted nets are
// annotated with their waveforms and converted to equivalent linear
// waveforms by any of the paper's techniques before table lookup — exactly
// how the paper proposes SGDP be deployed inside a commercial timer.
package sta

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"noisewave/internal/eqwave"
	"noisewave/internal/liberty"
	"noisewave/internal/netlist"
	"noisewave/internal/wave"
)

// PinTiming is the timing state of one net for one edge.
type PinTiming struct {
	Valid   bool
	Arrival float64 // latest (max) arrival (s)
	Trans   float64 // transition time at the latest arrival (s)

	// Early is the earliest (min) arrival, propagated alongside the
	// latest; min/max pairs feed hold-style checks and uncertainty
	// windows.
	Early float64

	// Back-pointers for path extraction (latest arrival only).
	FromNet  string
	FromEdge wave.Edge
	ViaGate  string
}

// NetTiming carries both edges of one net.
type NetTiming struct {
	Rise, Fall PinTiming
}

// timingFor returns the entry for an edge.
func (n *NetTiming) timingFor(e wave.Edge) *PinTiming {
	if e == wave.Rising {
		return &n.Rise
	}
	return &n.Fall
}

// NoiseAnnotation attaches crosstalk waveforms to a net: the noisy input
// observed at the receiving gate, plus the noiseless input/output pair the
// sensitivity-based techniques require.
//
// Noiseless and NoiselessOut may be left nil when the library was
// characterized with output waveforms (charlib Options.WithWaves): the
// timer then reconstructs the pair during propagation — the noiseless
// input as a ramp at the net's propagated arrival/transition, the
// noiseless output as the receiving cell's stored shape at the nearest
// characterization grid point — so noise-aware timing needs only the noisy
// waveform and a .lib file.
type NoiseAnnotation struct {
	Noisy        *wave.Waveform
	Noiseless    *wave.Waveform
	NoiselessOut *wave.Waveform
	Edge         wave.Edge
}

// Timer runs static timing on a design against a library.
//
// The entry point is RunCtx(ctx, RunOptions): cancellable, parallel,
// traced and metered, with annotations snapshotted at run start so
// concurrent Annotate and RunCtx calls are defined behavior.
//
// Each run compiles Design and Lib afresh into a levelized graph, which its
// Result keeps for ComputeRequired, so a Design edited between runs is
// timed as edited. With Workers > 1 the noise conversions of one level
// boundary run concurrently, so Technique must then be safe for concurrent
// use (every eqwave technique is).
type Timer struct {
	Lib    *liberty.Library
	Design *netlist.Design

	// Technique converts noise-annotated nets to equivalent waveforms
	// (default: SGDP).
	Technique eqwave.Technique
	// Noise maps net names to their annotations. Mutate through Annotate
	// (not directly) when a RunCtx may be in flight on another goroutine.
	Noise map[string]*NoiseAnnotation
	// Wire selects the interconnect delay model (default IdealWire). Each
	// run's Result keeps the model it timed with, so ComputeRequired
	// follows the run even if Wire changes afterwards.
	Wire WireModel

	// mu guards Noise for the Annotate/snapshotNoise pair.
	mu sync.Mutex
}

// New builds a timer with the default (SGDP) noise conversion.
func New(lib *liberty.Library, d *netlist.Design) *Timer {
	return &Timer{
		Lib:       lib,
		Design:    d,
		Technique: eqwave.NewSGDP(),
		Noise:     make(map[string]*NoiseAnnotation),
	}
}

// Annotate attaches a noise annotation to a net. It is safe to call
// concurrently with RunCtx: each run snapshots the annotation map when it
// starts, so an annotation lands either wholly in a run or not at all.
func (t *Timer) Annotate(net string, a *NoiseAnnotation) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Noise[net] = a
}

// Result holds the computed timing.
type Result struct {
	// Nets maps each net name to its timing. It is the run's name index:
	// the values point into the flat arena the run timed into (converted
	// noisy edges stamped in), and ComputeRequired resolves constraint
	// names through it, so a name whose entry a caller replaces is no
	// longer one of the run's nets.
	Nets map[string]*NetTiming

	// graph and wire are what the run timed on: the graph compiled for it,
	// which owns the arena, and the wire model. ComputeRequired walks them
	// backward, so slack matches arrival even after the timer or its
	// design moves on.
	graph *compactGraph
	wire  WireModel
}

// noiseVal is the outcome of one technique conversion.
type noiseVal struct {
	arrival float64
	trans   float64
}

// ErrCombinationalLoop is returned when the gate graph has a cycle.
var ErrCombinationalLoop = errors.New("sta: combinational loop detected")

// convert resolves one annotation to its equivalent-ramp arrival and
// transition. base is the net's propagated timing and cell/arc/load
// describe the receiving gate; both are used only to reconstruct the
// noiseless pair from library waveforms when the annotation does not carry
// it. convert writes nothing shared, so a level boundary's conversions can
// run concurrently.
func (t *Timer) convert(net string, ann *NoiseAnnotation, base *NetTiming,
	cell *liberty.Cell, arc *liberty.Arc, load float64) (arr, tt float64, err error) {

	nl, nlOut := ann.Noiseless, ann.NoiselessOut
	if nl == nil || nlOut == nil {
		nl, nlOut, err = t.reconstructNoiseless(base, ann, cell, arc, load)
		if err != nil {
			return 0, 0, fmt.Errorf("noise annotation on %s: %w", net, err)
		}
	}
	gamma, err := t.Technique.Equivalent(eqwave.Input{
		Noisy:        ann.Noisy,
		Noiseless:    nl,
		NoiselessOut: nlOut,
		Vdd:          t.Lib.Vdd,
		Edge:         ann.Edge,
	})
	if err != nil {
		return 0, 0, fmt.Errorf("noise conversion (%s): %w", t.Technique.Name(), err)
	}
	if arr, err = gamma.Arrival(); err != nil {
		return 0, 0, err
	}
	if tt, err = gamma.TransitionTime(); err != nil {
		return 0, 0, err
	}
	return arr, tt, nil
}

// reconstructNoiseless rebuilds the noiseless input/output pair of an
// annotated net from the library: the input as a saturated ramp at the
// propagated arrival/transition, the output as the receiving cell's stored
// characterization waveform (nearest grid point), shifted to the arrival.
func (t *Timer) reconstructNoiseless(base *NetTiming, ann *NoiseAnnotation, cell *liberty.Cell, arc *liberty.Arc, load float64) (nl, nlOut *wave.Waveform, err error) {
	pt := base.timingFor(ann.Edge)
	if !pt.Valid {
		return nil, nil, fmt.Errorf("no propagated timing for the %v edge", ann.Edge)
	}
	// The ramp's slope is 0.8·Vdd over the transition: a zero, negative or
	// non-finite transition (a zero-slew primary input) or arrival would
	// build a NaN waveform that fails later with a misleading message.
	if !(pt.Trans > 0) || math.IsInf(pt.Trans, 1) {
		return nil, nil, fmt.Errorf("propagated %v transition %g s is not finite and positive", ann.Edge, pt.Trans)
	}
	if math.IsNaN(pt.Arrival) || math.IsInf(pt.Arrival, 0) {
		return nil, nil, fmt.Errorf("propagated %v arrival %g s is not finite", ann.Edge, pt.Arrival)
	}
	if cell.Waves == nil {
		return nil, nil, fmt.Errorf("cell %s has no characterized output waveforms (re-characterize with WithWaves)", cell.Name)
	}
	outEdge := ann.Edge
	if arc.Sense == liberty.NegativeUnate {
		outEdge = outEdge.Opposite()
	}
	wt, ok := cell.Waves[outEdge]
	if !ok {
		return nil, nil, fmt.Errorf("cell %s missing %v output waveforms", cell.Name, outEdge)
	}
	shape := wt.Nearest(pt.Trans, load)
	if shape == nil {
		return nil, nil, fmt.Errorf("cell %s has an empty waveform grid", cell.Name)
	}
	// Stored shapes use t = 0 at the input's 50% crossing.
	nlOut = shape.Shifted(pt.Arrival)

	vdd := t.Lib.Vdd
	a := 0.8 * vdd / pt.Trans
	if ann.Edge == wave.Falling {
		a = -a
	}
	ramp := wave.RampThroughPoint(a, pt.Arrival, 0.5*vdd, 0, vdd)
	span := 2 * pt.Trans
	nl = ramp.ToWaveform(pt.Arrival-span, pt.Arrival+span, 512)
	return nl, nlOut, nil
}

// WorstOutput returns the latest-arriving (net, edge) among the design's
// primary outputs.
func (r *Result) WorstOutput(outputs []string) (net string, edge wave.Edge, at PinTiming, err error) {
	worst := math.Inf(-1)
	found := false
	for _, o := range outputs {
		n, ok := r.Nets[o]
		if !ok {
			continue
		}
		for _, e := range []wave.Edge{wave.Rising, wave.Falling} {
			pt := n.timingFor(e)
			if pt.Valid && pt.Arrival > worst {
				worst = pt.Arrival
				net, edge, at = o, e, *pt
				found = true
			}
		}
	}
	if !found {
		return "", wave.Rising, PinTiming{}, errors.New("sta: no timed outputs")
	}
	return net, edge, at, nil
}

// PathStep is one hop of an extracted critical path.
type PathStep struct {
	Net     string
	Edge    wave.Edge
	Arrival float64
	Trans   float64
	ViaGate string // gate driving this net ("" for primary inputs)
}

// CriticalPath walks the back-pointers from a (net, edge) endpoint to a
// primary input. Each hop of a levelized run's path moves to a strictly
// lower level, so a valid path visits each net at most once; a walk that
// would take more steps than the Result has nets means the back-pointers
// are corrupt (a cycle a levelized run cannot produce, or a Result
// assembled by hand), and it is reported as an error rather than returned
// as a plausible-looking truncated path.
func (r *Result) CriticalPath(net string, edge wave.Edge) ([]PathStep, error) {
	var rev []PathStep
	cur, curEdge := net, edge
	for {
		n, ok := r.Nets[cur]
		if !ok {
			return nil, fmt.Errorf("sta: path reaches untimed net %s", cur)
		}
		pt := n.timingFor(curEdge)
		if !pt.Valid {
			return nil, fmt.Errorf("sta: path reaches invalid timing at %s (%v)", cur, curEdge)
		}
		if len(rev) == len(r.Nets) {
			return nil, fmt.Errorf("sta: critical path from %s (%v) exceeds %d steps without reaching a primary input (corrupt back-pointers)",
				net, edge, len(r.Nets))
		}
		rev = append(rev, PathStep{
			Net: cur, Edge: curEdge, Arrival: pt.Arrival, Trans: pt.Trans, ViaGate: pt.ViaGate,
		})
		if pt.ViaGate == "" {
			break
		}
		cur, curEdge = pt.FromNet, pt.FromEdge
	}
	// Reverse to input→output order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}
