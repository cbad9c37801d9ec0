// Package xtalk builds and runs the paper's Figure 1 crosstalk testbench:
// one or more aggressor lines capacitively coupled to a victim line, each
// line driven by a ×1 inverter and received by a ×4 inverter that drives a
// ×16 → ×64 inverter chain. The package produces the noiseless and noisy
// waveforms at the victim receiver input (the paper's in_u) and output
// (out_u), and runs aggressor-alignment sweeps.
//
// Topology notes (Figure 1 leaves some details implicit — see DESIGN.md §6):
// each line is three π-segments; the coupling capacitance is split equally
// over the three segment boundaries; the gate under test is the victim's
// ×4 receiver, loaded by the ×16 inverter whose output drives the ×64
// inverter.
package xtalk

import (
	"context"
	"fmt"
	"math"

	"noisewave/internal/circuit"
	"noisewave/internal/device"
	"noisewave/internal/faultinject"
	"noisewave/internal/interconnect"
	"noisewave/internal/spice"
	"noisewave/internal/telemetry"
	"noisewave/internal/trace"
	"noisewave/internal/wave"
)

// Quiet marks an aggressor as non-switching in a RunCtx call.
var Quiet = math.Inf(1)

// Config describes one crosstalk experiment configuration.
type Config struct {
	Name string
	Tech device.Tech

	// Aggressors is the number of aggressor lines (1 in Configuration I,
	// 2 in Configuration II).
	Aggressors int

	// LineLengthUm is the victim/aggressor line length in µm (1000 in
	// Configuration I, 500 in Configuration II).
	LineLengthUm float64

	// CouplingTotal is the total victim coupling capacitance per aggressor
	// (100 fF in both configurations).
	CouplingTotal float64

	// Drive strengths of the chain, per Figure 1.
	DriverDrive   float64 // line driver (×1)
	ReceiverDrive float64 // gate under test (×4)
	Load1Drive    float64 // first load stage (×16)
	Load2Drive    float64 // second load stage (×64)

	// VictimSlew and AggressorSlew are 10–90% input slews (150 ps).
	VictimSlew    float64
	AggressorSlew float64

	// VictimEdge is the victim transition direction; aggressors switch the
	// opposite way, which maximizes delay push-out.
	VictimEdge wave.Edge

	// Step and Window control the transient runs.
	Step   float64 // simulator base step
	Window float64 // extra simulated time after the victim input edge

	// Telemetry, if non-nil, receives the spice engine counters of every
	// transient the testbench runs (the experiment drivers set it from
	// their SweepOptions).
	Telemetry *telemetry.Registry

	// Inject, if non-nil, threads the deterministic fault injector into
	// every transient the testbench runs (chaos testing; see
	// internal/faultinject).
	Inject *faultinject.Injector

	// NoFastPath threads Options.NoFastPath into every transient the
	// testbench runs (the slow reference path of the fast-path
	// equivalence tests; see internal/spice).
	NoFastPath bool
}

// ConfigurationI returns the paper's Configuration I: one aggressor,
// 1000 µm lines, 100 fF total coupling, 150 ps slews.
func ConfigurationI(t device.Tech) Config {
	return Config{
		Name:          "I",
		Tech:          t,
		Aggressors:    1,
		LineLengthUm:  1000,
		CouplingTotal: 100e-15,
		DriverDrive:   1,
		ReceiverDrive: 4,
		Load1Drive:    16,
		Load2Drive:    64,
		VictimSlew:    150e-12,
		AggressorSlew: 150e-12,
		VictimEdge:    wave.Rising,
		Step:          1e-12,
		Window:        2.5e-9,
	}
}

// ConfigurationII returns the paper's Configuration II: two aggressors
// (x1, x2) each with 100 fF coupling to the victim, 500 µm lines.
func ConfigurationII(t device.Tech) Config {
	c := ConfigurationI(t)
	c.Name = "II"
	c.Aggressors = 2
	c.LineLengthUm = 500
	return c
}

// Node names exposed by the testbench.
const (
	NodeVictimIn   = "in_v"   // victim driver input
	NodeVictimNear = "drv_v"  // victim driver output (line near end)
	NodeVictimFar  = "in_u"   // victim line far end = gate-under-test input
	NodeGateOut    = "out_u"  // gate-under-test output
	NodeLoad1Out   = "out_16" // ×16 stage output
	NodeLoad2Out   = "out_64" // ×64 stage output
)

// AggressorIn returns the input node name of aggressor k (0-based).
func AggressorIn(k int) string { return fmt.Sprintf("in_x%d", k+1) }

// edgeSource builds the driver-input source that yields the desired edge
// direction at the line (the ×1 driver inverts). A non-finite start time
// produces a quiet (DC) source at the pre-transition level.
func edgeSource(start, slew, vdd float64, lineEdge wave.Edge) circuit.Source {
	inEdge := lineEdge.Opposite() // driver inversion
	if math.IsInf(start, 0) {
		if inEdge == wave.Rising {
			return circuit.DCSource(0)
		}
		return circuit.DCSource(vdd)
	}
	return circuit.SlewRamp(start, slew, vdd, inEdge)
}

// Build constructs the full testbench circuit. victimStart is the time of
// the victim edge at the line; aggStart[k] the edge time of aggressor k
// (Quiet for a non-switching aggressor). Production runs go through Bench,
// which builds the circuit once per worker; Build is kept for the
// multi-stage path testbench of ROADMAP item 3, which extends it.
func (cfg Config) Build(victimStart float64, aggStart []float64) (*circuit.Circuit, error) {
	ckt, _, _, err := cfg.build(victimStart, aggStart)
	return ckt, err
}

// build is Build returning, in addition, the victim and aggressor source
// elements so a Bench can re-aim the edges between runs without rebuilding.
func (cfg Config) build(victimStart float64, aggStart []float64) (*circuit.Circuit, *circuit.VSource, []*circuit.VSource, error) {
	if len(aggStart) != cfg.Aggressors {
		return nil, nil, nil, fmt.Errorf("xtalk: %d aggressor start times for %d aggressors", len(aggStart), cfg.Aggressors)
	}
	t := cfg.Tech
	ckt := circuit.New()
	vdd := ckt.Node("vdd")
	ckt.AddVSource("vdd", vdd, circuit.Ground, circuit.DCSource(t.Vdd))

	line := interconnect.PaperLine(cfg.LineLengthUm)

	// Victim path.
	vin := ckt.Node(NodeVictimIn)
	vnear := ckt.Node(NodeVictimNear)
	farV := ckt.Node(NodeVictimFar)
	vsrc := ckt.AddVSource("v_victim", vin, circuit.Ground,
		edgeSource(victimStart, cfg.VictimSlew, t.Vdd, cfg.VictimEdge))
	ckt.AddInverter("drv_v", t, cfg.DriverDrive, vin, vnear, vdd)
	juncV := line.BuildBetween(ckt, "lv", vnear, farV)

	// Gate under test and its load chain.
	outU := ckt.Node(NodeGateOut)
	out16 := ckt.Node(NodeLoad1Out)
	out64 := ckt.Node(NodeLoad2Out)
	ckt.AddInverter("gut", t, cfg.ReceiverDrive, farV, outU, vdd)
	ckt.AddInverter("l16", t, cfg.Load1Drive, outU, out16, vdd)
	ckt.AddInverter("l64", t, cfg.Load2Drive, out16, out64, vdd)

	// Aggressor paths.
	aggEdge := cfg.VictimEdge.Opposite()
	asrcs := make([]*circuit.VSource, cfg.Aggressors)
	for k := 0; k < cfg.Aggressors; k++ {
		ain := ckt.Node(AggressorIn(k))
		anear := ckt.Node(fmt.Sprintf("drv_x%d", k+1))
		afar := ckt.Node(fmt.Sprintf("far_x%d", k+1))
		asrcs[k] = ckt.AddVSource(fmt.Sprintf("v_agg%d", k+1), ain, circuit.Ground,
			edgeSource(aggStart[k], cfg.AggressorSlew, t.Vdd, aggEdge))
		ckt.AddInverter(fmt.Sprintf("drv_x%d", k+1), t, cfg.DriverDrive, ain, anear, vdd)
		juncA := line.BuildBetween(ckt, fmt.Sprintf("lx%d", k+1), anear, afar)
		// Aggressor receiver (same ×4 stage, lightly loaded).
		aout := ckt.Node(fmt.Sprintf("out_x%d", k+1))
		ckt.AddInverter(fmt.Sprintf("rcv_x%d", k+1), t, cfg.ReceiverDrive, afar, aout, vdd)
		if err := interconnect.CouplePair(ckt, juncV, juncA, cfg.CouplingTotal); err != nil {
			return nil, nil, nil, err
		}
	}
	return ckt, vsrc, asrcs, nil
}

// simWindow returns the simulation end time for a set of edge times,
// ignoring quiet (non-finite) edges.
func (cfg Config) simWindow(victimStart float64, aggStart []float64) float64 {
	end := 0.0
	if !math.IsInf(victimStart, 0) {
		end = victimStart
	}
	for _, a := range aggStart {
		if !math.IsInf(a, 0) && a > end {
			end = a
		}
	}
	return end + cfg.Window
}

// RunCtx simulates the testbench and returns the waveforms at the gate-
// under-test input and output. The transient stops at the next outer time
// step once ctx is done, returning an error that matches
// telemetry.ErrCanceled. On any error the waveforms are nil; use
// RunReportCtx to salvage the recorded prefix of a failed transient.
func (cfg Config) RunCtx(ctx context.Context, victimStart float64, aggStart []float64) (in, out *wave.Waveform, err error) {
	in, out, _, err = cfg.RunReportCtx(ctx, victimStart, aggStart)
	if err != nil {
		return nil, nil, err
	}
	return in, out, nil
}

// RunReportCtx is RunCtx with the resilience detail the robust experiment
// drivers need: the spice recovery report of the transient and, when the
// run fails partway (an unrecoverable step, a cancellation), the waveform
// prefixes recorded up to the failure. On error the returned waveforms are
// the salvageable prefixes — nil when nothing usable was recorded — so a
// caller can fall back to a degraded estimate instead of discarding the
// case.
func (cfg Config) RunReportCtx(ctx context.Context, victimStart float64, aggStart []float64) (in, out *wave.Waveform, rec spice.RecoveryReport, err error) {
	b, err := NewBench(cfg)
	if err != nil {
		return nil, nil, rec, err
	}
	return b.RunReportCtx(ctx, victimStart, aggStart)
}

// Bench is a built testbench whose edge times can be re-aimed between runs:
// the circuit and simulator are constructed once and reused for every case,
// so a sweep worker replaying hundreds of alignments stops paying circuit
// construction and simulator allocation per case. Each run starts from its
// own DC operating point, or resumes from a checkpoint of the recorded
// quiet prefix (RecordPrefix) that reproduces that DC point and lead-in
// bit for bit, so no electrical state leaks between cases. A Bench is not
// safe for concurrent use; sweeps hold one per worker.
type Bench struct {
	cfg  Config
	vsrc *circuit.VSource
	asrc []*circuit.VSource
	sim  *spice.Simulator
}

// NewBench builds the testbench circuit for cfg with all edges initially
// quiet. The Config's Telemetry/Inject/NoFastPath are baked into the bench;
// change them by building a new one.
func NewBench(cfg Config) (*Bench, error) {
	quiet := make([]float64, cfg.Aggressors)
	for i := range quiet {
		quiet[i] = Quiet
	}
	ckt, vsrc, asrc, err := cfg.build(Quiet, quiet)
	if err != nil {
		return nil, err
	}
	sim := spice.New(ckt, spice.Options{
		Step:        cfg.Step,
		Probes:      []string{NodeVictimFar, NodeGateOut},
		Telemetry:   cfg.Telemetry,
		Inject:      cfg.Inject,
		NoFastPath:  cfg.NoFastPath,
		ReuseResult: true,
	})
	return &Bench{cfg: cfg, vsrc: vsrc, asrc: asrc, sim: sim}, nil
}

// RecordPrefix records the bench's quiet lead-in up to horizon: the DC
// point and checkpointed steps of a run in which every source holds its
// t = 0 value (on a new bench, every edge quiet). Later runs resume from
// the latest checkpoint before their first edge, with samples bit-identical
// to a run from scratch (see spice.Simulator.RecordPrefix).
func (b *Bench) RecordPrefix(ctx context.Context, horizon float64) error {
	return b.sim.RecordPrefix(ctx, 0, horizon)
}

// RunCtx is Config.RunCtx on the reusable bench.
func (b *Bench) RunCtx(ctx context.Context, victimStart float64, aggStart []float64) (in, out *wave.Waveform, err error) {
	in, out, _, err = b.RunReportCtx(ctx, victimStart, aggStart)
	if err != nil {
		return nil, nil, err
	}
	return in, out, nil
}

// RunReportCtx is Config.RunReportCtx on the reusable bench: it re-aims the
// victim and aggressor sources at the requested edge times and re-runs the
// simulator over the matching window.
func (b *Bench) RunReportCtx(ctx context.Context, victimStart float64, aggStart []float64) (in, out *wave.Waveform, rec spice.RecoveryReport, err error) {
	cfg := b.cfg
	if len(aggStart) != cfg.Aggressors {
		return nil, nil, rec, fmt.Errorf("xtalk: %d aggressor start times for %d aggressors", len(aggStart), cfg.Aggressors)
	}
	ctx, span := trace.Start(ctx, "xtalk.transient",
		trace.String("config", cfg.Name),
		trace.Float("victim_start_s", victimStart),
		trace.Floats("agg_start_s", aggStart))
	defer span.End()
	t := cfg.Tech
	b.vsrc.Value = edgeSource(victimStart, cfg.VictimSlew, t.Vdd, cfg.VictimEdge)
	aggEdge := cfg.VictimEdge.Opposite()
	for k, src := range b.asrc {
		src.Value = edgeSource(aggStart[k], cfg.AggressorSlew, t.Vdd, aggEdge)
	}
	res, runErr := b.sim.Run(ctx, 0, cfg.simWindow(victimStart, aggStart))
	if res != nil {
		rec = res.Recovery
	}
	if runErr != nil {
		// Salvage the recorded prefix: the failing step was rejected
		// before recording, so whatever is in the result is finite and
		// monotone. Waveform construction can still fail (fewer than two
		// samples); the prefix is then just not salvageable.
		if res != nil && res.Steps() >= 2 {
			in, _ = res.Waveform(NodeVictimFar)
			out, _ = res.Waveform(NodeGateOut)
		}
		return in, out, rec, fmt.Errorf("xtalk: config %s: %w", cfg.Name, runErr)
	}
	if in, err = res.Waveform(NodeVictimFar); err != nil {
		return nil, nil, rec, err
	}
	if out, err = res.Waveform(NodeGateOut); err != nil {
		return nil, nil, rec, err
	}
	return in, out, rec, nil
}

// RunNoiselessCtx simulates with all aggressors quiet and returns the
// noiseless victim input/output pair used for sensitivity extraction
// (see RunCtx).
func (cfg Config) RunNoiselessCtx(ctx context.Context, victimStart float64) (in, out *wave.Waveform, err error) {
	quiet := make([]float64, cfg.Aggressors)
	for i := range quiet {
		quiet[i] = Quiet
	}
	return cfg.RunCtx(ctx, victimStart, quiet)
}

// RunQuietVictim simulates the functional-noise scenario: the victim never
// switches (held at its pre-transition level — low for a rising-victim
// configuration) while the aggressors fire at the given times. The
// returned waveforms are the coupling glitch at the victim receiver input
// and the receiver output.
func (cfg Config) RunQuietVictim(aggStart []float64) (in, out *wave.Waveform, err error) {
	return cfg.RunCtx(context.TODO(), Quiet, aggStart)
}
