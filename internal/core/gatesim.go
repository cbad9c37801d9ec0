// Package core is the gate delay propagation engine: it ties an
// equivalent-waveform technique (internal/eqwave) to a gate evaluation
// backend and produces output arrival times and delay errors against the
// golden transient reference.
//
// Two gate backends are provided: a transistor-level backend that replays
// a drive waveform into the receiving gate with the internal simulator
// (used by the paper-accuracy experiments), and an NLDM table backend
// (internal/liberty) used by the STA engine, matching how a production
// timer would consume Γeff.
package core

import (
	"context"
	"fmt"
	"math"

	"noisewave/internal/circuit"
	"noisewave/internal/device"
	"noisewave/internal/faultinject"
	"noisewave/internal/spice"
	"noisewave/internal/telemetry"
	"noisewave/internal/wave"
)

// GateSim is the transistor-level gate evaluation backend: a receiving
// gate chain driven by an ideal source, simulated with internal/spice. The
// gate output is the first stage's (the paper's out_u); the later stages
// are its load. Its fields are read once, when the first replay or
// RecordPrefix builds the chain.
type GateSim struct {
	Tech   device.Tech
	Drives []float64 // inverter chain drive strengths; Drives[0] is the gate under test
	Step   float64   // simulator step

	// Telemetry, if non-nil, receives the spice engine counters of every
	// replay this backend runs, and CompareTechniquesWith's fit timers and
	// replay counters. The registry is concurrency-safe, so one registry
	// may be shared by the per-worker GateSims of a sweep.
	Telemetry *telemetry.Registry

	// Inject, if non-nil, threads the deterministic fault injector into
	// every replay transient (chaos testing; see internal/faultinject).
	Inject *faultinject.Injector

	// NoFastPath threads Options.NoFastPath into every replay simulator
	// (the slow reference path of the fast-path equivalence tests; see
	// internal/spice).
	NoFastPath bool

	// rec accumulates the recovery-ladder reports of every replay since
	// the last TakeRecovery call. Like the simulator itself, this is not
	// safe for concurrent use.
	rec spice.RecoveryReport

	// bench is the replay chain: one circuit and simulator reused across
	// every replay this backend runs, with only the input source value and
	// the run window changing per call (each run starts from its own DC
	// operating point, or resumes from a RecordPrefix checkpoint that
	// reproduces that point and lead-in bit for bit, so no state leaks
	// between replays). Nil until the first replay or RecordPrefix.
	bench *gateBench
}

// gateBench is GateSim's replay chain.
type gateBench struct {
	sim     *spice.Simulator
	vin     *circuit.VSource
	outName string
}

// TakeRecovery returns the recovery-ladder activity accumulated over the
// replays since the previous call, and resets the accumulator. Sweep
// drivers call it once per case to classify the case's health.
func (g *GateSim) TakeRecovery() spice.RecoveryReport {
	r := g.rec
	g.rec = spice.RecoveryReport{}
	return r
}

// NewInverterChainSim builds the standard receiver used by the paper's
// testbench: the gate under test at drives[0] loaded by the remaining
// stages (e.g. 4, 16, 64).
func NewInverterChainSim(t device.Tech, drives []float64, step float64) *GateSim {
	return &GateSim{Tech: t, Drives: append([]float64(nil), drives...), Step: step}
}

// OutputForSourceCtx drives the chain input with src and returns the gate
// output waveform over [start, stop]. The replay transient stops early
// once ctx is done, returning an error matching telemetry.ErrCanceled.
func (g *GateSim) OutputForSourceCtx(ctx context.Context, src circuit.Source, start, stop float64) (*wave.Waveform, error) {
	b, err := g.replayBench()
	if err != nil {
		return nil, err
	}
	b.vin.Value = src
	res, err := b.sim.Run(ctx, start, stop)
	if res != nil {
		g.rec.Absorb(res.Recovery)
	}
	if err != nil {
		return nil, fmt.Errorf("core: gate evaluation: %w", err)
	}
	return res.Waveform(b.outName)
}

// replayBench returns the replay chain, building it on first use. Its
// simulator recycles one *Result per replay, which is safe because
// OutputForSourceCtx only hands out Waveform copies.
func (g *GateSim) replayBench() (*gateBench, error) {
	if g.bench != nil {
		return g.bench, nil
	}
	if len(g.Drives) == 0 {
		return nil, fmt.Errorf("core: GateSim has no stages")
	}
	ckt := circuit.New()
	vdd := ckt.Node("vdd")
	ckt.AddVSource("vdd", vdd, circuit.Ground, circuit.DCSource(g.Tech.Vdd))
	in := ckt.Node("in")
	vin := ckt.AddVSource("vin", in, circuit.Ground, circuit.DCSource(0))
	prev := in
	var outName string
	for i, d := range g.Drives {
		out := ckt.Node(fmt.Sprintf("out%d", i))
		ckt.AddInverter(fmt.Sprintf("u%d", i), g.Tech, d, prev, out, vdd)
		if i == 0 {
			outName = ckt.NodeName(out)
		}
		prev = out
	}
	sim := spice.New(ckt, spice.Options{
		Step:       g.Step,
		Probes:     []string{outName},
		Telemetry:  g.Telemetry,
		Inject:     g.Inject,
		NoFastPath: g.NoFastPath,
	})
	g.bench = &gateBench{sim: sim, vin: vin, outName: outName}
	return g.bench, nil
}

// RecordPrefix records the replay chain's quiet lead-in from start to
// horizon with the input held at its current value at start. Later replays
// over windows from start resume from the latest checkpoint before their
// input moves, with samples bit-identical to a replay from scratch (see
// spice.Simulator.RecordPrefix).
func (g *GateSim) RecordPrefix(ctx context.Context, start, horizon float64) error {
	b, err := g.replayBench()
	if err != nil {
		return err
	}
	return b.sim.RecordPrefix(ctx, start, horizon)
}

// OutputForRampCtx evaluates the chain for an equivalent linear waveform
// under a context (see OutputForSourceCtx).
func (g *GateSim) OutputForRampCtx(ctx context.Context, r wave.Ramp, start, stop float64) (*wave.Waveform, error) {
	return g.OutputForSourceCtx(ctx, circuit.RampWaveSource{R: r}, start, stop)
}

// OutputForWave replays an arbitrary waveform into the chain.
func (g *GateSim) OutputForWave(w *wave.Waveform, start, stop float64) (*wave.Waveform, error) {
	return g.OutputForSourceCtx(context.TODO(), circuit.WaveSource{W: w}, start, stop)
}

// ArrivalAt returns the STA arrival time of a waveform: its latest crossing
// of 0.5·Vdd.
func ArrivalAt(w *wave.Waveform, vdd float64) (float64, error) {
	return w.LastCrossing(0.5 * vdd)
}

// GateDelay returns the 50%-to-50% gate delay between an input and output
// waveform pair (latest crossings, per the paper's §4.1).
func GateDelay(in, out *wave.Waveform, vdd float64) (float64, error) {
	tIn, err := ArrivalAt(in, vdd)
	if err != nil {
		return 0, fmt.Errorf("core: input arrival: %w", err)
	}
	tOut, err := ArrivalAt(out, vdd)
	if err != nil {
		return 0, fmt.Errorf("core: output arrival: %w", err)
	}
	return tOut - tIn, nil
}

// WindowFor picks the replay window for a ramp: from the earlier of the
// reference record's start and margin before the ramp's transition [t0, t1],
// to margin after t1. Past t1 the ramp is flat, so the window ends once the
// driven gate has had margin to settle rather than at the reference's end;
// a caller that needs the reference's full span takes max(stop, ref.End()).
// A flat ramp, which has no transition, gets the reference's span.
func WindowFor(r wave.Ramp, ref *wave.Waveform, margin float64) (start, stop float64) {
	start, stop = ref.Start(), ref.End()
	if t0, t1, err := r.Span(); err == nil {
		start = math.Min(start, t0-margin)
		stop = t1 + margin
	}
	return start, stop
}
