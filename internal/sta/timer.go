// Package sta is a gate-level static timing engine built on the NLDM
// library layer: topological arrival propagation with rise/fall edges,
// per-net loading (pin caps + wire caps + coupling caps), critical-path
// extraction, and a noise-aware mode in which crosstalk-distorted nets are
// annotated with their waveforms and converted to equivalent linear
// waveforms by any of the paper's techniques before table lookup — exactly
// how the paper proposes SGDP be deployed inside a commercial timer.
package sta

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"noisewave/internal/eqwave"
	"noisewave/internal/liberty"
	"noisewave/internal/netlist"
	"noisewave/internal/telemetry"
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
// The context-first entry point is RunCtx(ctx, RunOptions): cancellable,
// parallel, traced and metered, with annotations snapshotted at run start
// so concurrent Annotate and RunCtx calls are defined behavior. Run is the
// retained legacy surface (a bit-identical sequential wrapper).
type Timer struct {
	Lib    *liberty.Library
	Design *netlist.Design

	// Technique converts noise-annotated nets to equivalent waveforms
	// (default: SGDP).
	Technique eqwave.Technique
	// Noise maps net names to their annotations. Mutate through Annotate
	// (not directly) when a RunCtx may be in flight on another goroutine.
	Noise map[string]*NoiseAnnotation
	// P is the technique sample count (default eqwave.DefaultP).
	P int
	// Wire selects the interconnect delay model (default IdealWire);
	// RunOptions.Wire overrides it per run.
	Wire WireModel
	// Telemetry, if non-nil, observes the run: gate and arc counters, the
	// noise-conversion counter and the wall time of each Run (metric names
	// in EXPERIMENTS.md "Observability"). RunOptions.Telemetry overrides
	// it per run.
	Telemetry *telemetry.Registry

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
	Nets map[string]*NetTiming
	// Order is the topological gate order used (diagnostics).
	Order []string

	// noiseConv memoizes the technique conversion of each annotated net,
	// keyed by (net, edge): the forward pass converts each annotated net
	// once, and the backward pass (ComputeRequired) reuses the stored
	// (arrival, transition) instead of re-running the full technique fit
	// per backward arc. The cache lives on the Result because required-time
	// propagation is documented as valid only against the Result of the
	// same Timer.Run call.
	noiseConv map[noiseKey]noiseVal
}

// noiseKey identifies one annotated (net, edge) conversion.
type noiseKey struct {
	net  string
	edge wave.Edge
}

// noiseVal is the memoized outcome of one technique conversion.
type noiseVal struct {
	arrival float64
	trans   float64
}

// ErrCombinationalLoop is returned when the gate graph has a cycle.
var ErrCombinationalLoop = errors.New("sta: combinational loop detected")

// Run propagates arrivals from the primary inputs to all nets.
//
// Deprecated: use RunCtx, which adds cancellation, parallelism, tracing
// and per-run telemetry through RunOptions. Run() is exactly
// RunCtx(context.Background(), RunOptions{Workers: 1}) and stays
// bit-identical to it.
func (t *Timer) Run() (*Result, error) {
	return t.RunCtx(context.Background(), RunOptions{Workers: 1})
}

// inputTiming returns the effective timing of a net as seen by a receiving
// gate: the propagated timing, unless the net carries a noise annotation —
// in which case the annotation's noisy waveform is converted to Γeff by the
// configured technique and its arrival/transition replace the propagated
// values for the annotated edge. cell/arc/load describe the receiving gate
// (used to reconstruct the noiseless pair from library waveforms when the
// annotation does not carry it).
//
// The conversion is memoized per (net, edge) on the Result: the technique
// fit runs once per annotated net and every later consumer — further
// fanouts in the forward pass, every backward arc in ComputeRequired —
// reuses the stored (arrival, transition). The sta.noise_conversions
// counter therefore counts actual fits, not lookups.
func (t *Timer) inputTiming(res *Result, base *NetTiming, net string, cell *liberty.Cell, arc *liberty.Arc, load float64) (*NetTiming, error) {
	ann, ok := t.Noise[net]
	if !ok {
		return base, nil
	}
	arr, tt, err := t.convertNoise(res, t.Telemetry, net, ann, base, cell, arc, load)
	if err != nil {
		return nil, err
	}
	// Stamp the converted timing into the result's net entry (keeping the
	// path back-pointers), so reported arrivals, critical paths and slacks
	// agree with the timing downstream gates actually saw.
	if nt, ok := res.Nets[net]; ok {
		pt := nt.timingFor(ann.Edge)
		pt.Valid = true
		pt.Arrival, pt.Early, pt.Trans = arr, arr, tt
	}
	eff := *base
	*eff.timingFor(ann.Edge) = PinTiming{Valid: true, Arrival: arr, Early: arr, Trans: tt}
	return &eff, nil
}

// convertNoise resolves one annotated (net, edge) to its equivalent-ramp
// arrival and transition, memoized on the Result so the technique fit runs
// once per annotated net regardless of which engine (map walk or levelized
// parallel) or pass (forward or backward) asks. The caller stamps the
// values wherever its own storage lives.
func (t *Timer) convertNoise(res *Result, reg *telemetry.Registry, net string, ann *NoiseAnnotation,
	base *NetTiming, cell *liberty.Cell, arc *liberty.Arc, load float64) (arr, tt float64, err error) {

	if res.noiseConv == nil {
		res.noiseConv = make(map[noiseKey]noiseVal)
	}
	key := noiseKey{net: net, edge: ann.Edge}
	if v, ok := res.noiseConv[key]; ok {
		return v.arrival, v.trans, nil
	}
	nl, nlOut := ann.Noiseless, ann.NoiselessOut
	if nl == nil || nlOut == nil {
		nl, nlOut, err = t.reconstructNoiseless(base, ann, cell, arc, load)
		if err != nil {
			return 0, 0, fmt.Errorf("noise annotation on %s: %w", net, err)
		}
	}
	reg.Counter("sta.noise_conversions").Inc()
	gamma, err := t.Technique.Equivalent(eqwave.Input{
		Noisy:        ann.Noisy,
		Noiseless:    nl,
		NoiselessOut: nlOut,
		Vdd:          t.Lib.Vdd,
		Edge:         ann.Edge,
		P:            t.P,
	})
	if err != nil {
		return 0, 0, fmt.Errorf("noise conversion (%s): %w", t.Technique.Name(), err)
	}
	arr, err = gamma.Arrival()
	if err != nil {
		return 0, 0, err
	}
	tt, err = gamma.TransitionTime()
	if err != nil {
		return 0, 0, err
	}
	res.noiseConv[key] = noiseVal{arrival: arr, trans: tt}
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
// primary input. A walk that has not reached a primary input after
// maxPathSteps hops means the back-pointers are corrupt (a cycle a
// levelized run cannot produce, or a Result assembled by hand); it is
// reported as an error rather than returned as a plausible-looking
// truncated path.
func (r *Result) CriticalPath(net string, edge wave.Edge) ([]PathStep, error) {
	const maxPathSteps = 10000
	var rev []PathStep
	cur, curEdge := net, edge
	for {
		if len(rev) >= maxPathSteps {
			return nil, fmt.Errorf("sta: critical path from %s (%v) exceeds %d steps without reaching a primary input (corrupt back-pointers)",
				net, edge, maxPathSteps)
		}
		n, ok := r.Nets[cur]
		if !ok {
			return nil, fmt.Errorf("sta: path reaches untimed net %s", cur)
		}
		pt := n.timingFor(curEdge)
		if !pt.Valid {
			return nil, fmt.Errorf("sta: path reaches invalid timing at %s (%v)", cur, curEdge)
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
