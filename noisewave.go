// Package noisewave is a noise-aware static timing analysis library: a Go
// reproduction of "Modeling and Propagation of Noisy Waveforms in Static
// Timing Analysis" (Nazarian, Pedram, Tuncer, Lin, Ajami — DATE 2005).
//
// The package provides, from the bottom up:
//
//   - sampled voltage waveforms and saturated ramps (Γeff) — wave types,
//   - a transistor-level transient circuit simulator (the golden
//     reference standing in for Hspice),
//   - alpha-power-law CMOS cells and an NLDM characterization engine with
//     a Liberty-subset writer/parser,
//   - the six equivalent-waveform techniques of the paper — P1, P2, LSF3,
//     E4, WLS5 and the proposed SGDP,
//   - the coupled-interconnect crosstalk testbench of the paper's Figure 1,
//   - a gate-level static timing engine with a noise-aware mode, and
//   - experiment drivers that regenerate every table and figure of the
//     paper's evaluation (Table 1, Figure 2, §4.2 run times).
//
// This root package is a facade re-exporting the stable public surface;
// the implementation lives in internal/ packages. Examples under examples/
// exercise exactly this surface.
package noisewave

import (
	"io"

	"noisewave/internal/charlib"
	"noisewave/internal/core"
	"noisewave/internal/device"
	"noisewave/internal/eqwave"
	"noisewave/internal/experiments"
	"noisewave/internal/liberty"
	"noisewave/internal/netgen"
	"noisewave/internal/netlist"
	"noisewave/internal/noise"
	"noisewave/internal/spef"
	"noisewave/internal/spice"
	"noisewave/internal/sta"
	"noisewave/internal/telemetry"
	"noisewave/internal/verilog"
	"noisewave/internal/wave"
	"noisewave/internal/xtalk"
)

// Error contract. The library reports failure classes through sentinel
// errors; match them with errors.Is regardless of how many layers of
// wrapping ("experiments: case 12: spice: ...") sit on top:
//
//	ErrCanceled          the run stopped because a context was canceled or
//	                     timed out. Errors carrying it also wrap the
//	                     context's cause, so errors.Is(err,
//	                     context.DeadlineExceeded) works too. Drivers that
//	                     sweep many cases return their partial statistics
//	                     alongside this error.
//	ErrNoConvergence     the transient simulator's Newton iteration failed —
//	                     the circuit, step or tolerances are pathological.
//	ErrBadSamples        waveform construction from an empty or
//	                     non-monotonic sample series.
//	ErrEmptyWindow       a waveform extraction window was empty or missed
//	                     the waveform's span.
//	ErrNoCrossing        a waveform never reaches a requested threshold
//	                     (e.g. arrival measurement on an incomplete edge).
//	ErrCombinationalLoop the static timing engine found a cycle in the
//	                     gate graph.
var (
	ErrCanceled          = telemetry.ErrCanceled
	ErrNoConvergence     = spice.ErrNewton
	ErrBadSamples        = wave.ErrBadSamples
	ErrEmptyWindow       = wave.ErrEmptyWindow
	ErrNoCrossing        = wave.ErrNoCrossing
	ErrCombinationalLoop = sta.ErrCombinationalLoop
)

// Telemetry is the concurrency-safe metrics registry observed by the whole
// pipeline: spice engine counters, replay-cache outcomes, per-technique
// fit timers, sweep worker throughput and per-experiment wall timers. Pass
// one registry through the options structs (CompareTechniquesOpts,
// SweepOptions, RunOptions); a nil registry disables collection at zero
// cost.
type Telemetry = telemetry.Registry

// NewTelemetry returns an empty metrics registry.
func NewTelemetry() *Telemetry { return telemetry.New() }

// MetricsSnapshot is a point-in-time copy of a Telemetry registry; subtract
// two with Snapshot.Delta and render with WriteText/WriteJSON.
type MetricsSnapshot = telemetry.Snapshot

// Waveform is a sampled piecewise-linear voltage waveform.
type Waveform = wave.Waveform

// Ramp is a saturated linear waveform — the equivalent waveform Γeff.
type Ramp = wave.Ramp

// Edge is a transition direction.
type Edge = wave.Edge

// Transition directions.
const (
	Rising  = wave.Rising
	Falling = wave.Falling
)

// NewWaveform validates and wraps (t, v) samples.
func NewWaveform(t, v []float64) (*Waveform, error) { return wave.New(t, v) }

// Technique converts a noisy input waveform into an equivalent linear
// waveform.
type Technique = eqwave.Technique

// TechniqueInput carries the waveforms a technique consumes.
type TechniqueInput = eqwave.Input

// SGDP is the paper's sensitivity-based gate delay propagation technique.
type SGDP = eqwave.SGDP

// NewSGDP returns SGDP with the paper's full feature set.
func NewSGDP() *SGDP { return eqwave.NewSGDP() }

// AllTechniques returns P1, P2, LSF3, E4, WLS5 and SGDP in Table 1 order.
func AllTechniques() []Technique { return eqwave.All() }

// TechniqueByName resolves "P1".."SGDP".
func TechniqueByName(name string) (Technique, error) { return eqwave.ByName(name) }

// Sensitivity is the sampled output-to-input derivative ρ of a gate.
type Sensitivity = eqwave.Sensitivity

// ComputeSensitivity samples ρ over the noiseless critical region.
func ComputeSensitivity(nlIn, nlOut *Waveform, vdd float64, edge Edge, n int) (*Sensitivity, error) {
	return eqwave.ComputeSensitivity(nlIn, nlOut, vdd, edge, n)
}

// Tech describes a CMOS technology for the built-in cells.
type Tech = device.Tech

// DefaultTech returns the built-in 130 nm-class technology.
func DefaultTech() Tech { return device.Default130() }

// Corner describes a process/voltage/temperature corner; apply with
// Tech.AtCorner.
type Corner = device.Corner

// Standard corners of the built-in technology.
var (
	TypicalCorner = device.TypicalCorner
	SlowCorner    = device.SlowCorner
	FastCorner    = device.FastCorner
)

// CrosstalkConfig is a coupled-line noise-injection testbench configuration
// (the paper's Figure 1).
type CrosstalkConfig = xtalk.Config

// ConfigurationI returns the paper's single-aggressor configuration.
func ConfigurationI(t Tech) CrosstalkConfig { return xtalk.ConfigurationI(t) }

// ConfigurationII returns the paper's two-aggressor configuration.
func ConfigurationII(t Tech) CrosstalkConfig { return xtalk.ConfigurationII(t) }

// QuietAggressor marks an aggressor as non-switching in CrosstalkConfig.RunCtx.
func QuietAggressor() float64 { return xtalk.Quiet }

// GateSim is the transistor-level gate evaluation backend.
type GateSim = core.GateSim

// NewInverterChainSim builds an inverter-chain receiver (gate under test at
// drives[0]) evaluated with the internal transient simulator.
func NewInverterChainSim(t Tech, drives []float64, step float64) *GateSim {
	return core.NewInverterChainSim(t, drives, step)
}

// Comparison scores every technique against the transient reference for
// one noise case.
type Comparison = core.Comparison

// TechniqueResult is one technique's scored prediction.
type TechniqueResult = core.TechniqueResult

// CompareTechniquesOpts configures CompareTechniquesWith: cancellation
// context, technique set (nil = all six) and optional telemetry registry.
type CompareTechniquesOpts = core.CompareOptions

// CompareTechniquesWith runs the selected techniques on one noisy case and
// scores the predicted output arrivals against the reference output. A
// technique whose Γeff is bit-identical to an earlier technique's reuses
// that gate replay. A canceled opts.Ctx aborts between techniques and
// inside the gate replays with an error matching ErrCanceled.
func CompareTechniquesWith(gate *GateSim, in TechniqueInput, trueOut *Waveform, opts CompareTechniquesOpts) (*Comparison, error) {
	return core.CompareTechniquesWith(gate, in, trueOut, opts)
}

// GateDelay measures the 50%-to-50% delay between two waveforms.
func GateDelay(in, out *Waveform, vdd float64) (float64, error) {
	return core.GateDelay(in, out, vdd)
}

// Library is an NLDM cell library.
type Library = liberty.Library

// ParseLibrary reads a Liberty-subset file.
func ParseLibrary(r io.Reader) (*Library, error) { return liberty.Parse(r) }

// CharacterizationOptions configures library characterization.
type CharacterizationOptions = charlib.Options

// DefaultCharacterization returns the production slew×load grid.
func DefaultCharacterization() CharacterizationOptions { return charlib.DefaultOptions() }

// FastCharacterization returns a coarse grid for quick runs.
func FastCharacterization() CharacterizationOptions { return charlib.FastOptions() }

// Characterize sweeps the built-in standard cells into an NLDM library.
func Characterize(t Tech, opts CharacterizationOptions) (*Library, error) {
	return charlib.Characterize(t, charlib.StandardCells(t), opts)
}

// Design is a parsed gate-level netlist.
type Design = netlist.Design

// ParseNetlist reads the STA netlist format.
func ParseNetlist(r io.Reader) (*Design, error) { return netlist.Parse(r) }

// Timer is the static timing engine.
type Timer = sta.Timer

// NoiseAnnotation attaches crosstalk waveforms to a net for noise-aware
// timing.
type NoiseAnnotation = sta.NoiseAnnotation

// NewTimer builds a timer over a library and design (noise conversion
// defaults to SGDP).
func NewTimer(lib *Library, d *Design) *Timer { return sta.New(lib, d) }

// TimingResult is the output of a timing run: per-net, per-edge arrivals
// with transitions, early/late bounds and critical-path back-pointers.
type TimingResult = sta.Result

// RunOptions is the run-control block of Timer.RunCtx — the context-first
// timing entry point: worker-pool size for the levelized parallel engine
// (results are bit-identical at any worker count) and per-run
// telemetry/tracing. Cancellation comes from RunCtx's context; the wire
// model is the Timer's Wire field.
type RunOptions = sta.RunOptions

// PathStep is one hop of an extracted critical path.
type PathStep = sta.PathStep

// WireModel selects how interconnect delay is modeled during timing.
type WireModel = sta.WireModel

// Wire models: ideal (zero-delay) wires, or first-order Elmore RC delay
// from netres/netcap annotations.
const (
	IdealWire  = sta.IdealWire
	ElmoreWire = sta.ElmoreWire
)

// MultiDriverError reports a net driven by more than one gate output;
// match with errors.As to recover the net and both driver names.
type MultiDriverError = sta.MultiDriverError

// SweepOptions is the sweep-control block shared by the sweep drivers
// (embedded in Table1Options and PushoutOptions): worker-pool size, seed,
// progress callback, cancellation context and telemetry.
type SweepOptions = experiments.SweepOptions

// Table1Options parameterizes the Table 1 sweep.
type Table1Options = experiments.Table1Options

// Table1Result is one configuration block of the reproduced Table 1.
type Table1Result = experiments.Table1Result

// RunTable1 reproduces one configuration of the paper's Table 1.
func RunTable1(cfg CrosstalkConfig, opts Table1Options) (*Table1Result, error) {
	return experiments.RunTable1(cfg, opts)
}

// Figure2Series is the data behind the paper's Figure 2.
type Figure2Series = experiments.Figure2Series

// Figure2Options sets Figure 2's sample count, cancellation context and
// telemetry. Figure 2 is one case, not a sweep: panel (b) always shows the
// representative noisy case.
type Figure2Options = experiments.Figure2Options

// RunFigure2 regenerates the Figure 2 waveform series.
func RunFigure2(cfg CrosstalkConfig, opts Figure2Options) (*Figure2Series, error) {
	return experiments.RunFigure2(cfg, opts)
}

// Glitch summarizes a functional-noise bump on a quiet net.
type Glitch = noise.Glitch

// GlitchPropagation reports how a glitch survives a receiving gate.
type GlitchPropagation = noise.PropagationResult

// AnalyzeGlitch measures the dominant excursion on a quiet-net waveform.
func AnalyzeGlitch(w *Waveform) (Glitch, error) { return noise.Analyze(w) }

// PropagateGlitch replays a glitch into a receiving gate chain and
// measures the surviving output excursion against failThreshold.
func PropagateGlitch(gate *GateSim, glitchWave *Waveform, failThreshold float64) (GlitchPropagation, error) {
	return noise.Propagate(gate, glitchWave, failThreshold)
}

// RequiredTimes holds one run's backward-propagated required times and
// reads its slacks.
type RequiredTimes = sta.RequiredTimes

// SlackRow is one (net, edge) line of a slack report.
type SlackRow = sta.SlackRow

// VerilogModule is a parsed structural Verilog module.
type VerilogModule = verilog.Module

// ParseVerilog reads a structural Verilog module (named connections only);
// convert with VerilogModule.ToDesign.
func ParseVerilog(r io.Reader) (*VerilogModule, error) { return verilog.Parse(r) }

// Parasitics is parsed SPEF content (net ground caps + couplings).
type Parasitics = spef.Parasitics

// ParseSPEF reads the supported SPEF subset; apply with
// Parasitics.Annotate(design).
func ParseSPEF(r io.Reader) (*Parasitics, error) { return spef.Parse(r) }

// PushoutStats characterizes the delay-noise distribution of a crosstalk
// configuration.
type PushoutStats = experiments.PushoutStats

// PushoutOptions configures the delay-noise distribution sweep.
type PushoutOptions = experiments.PushoutOptions

// RunPushout sweeps aggressor alignments and measures reference output
// arrival shifts against the quiet baseline.
func RunPushout(cfg CrosstalkConfig, opts PushoutOptions) (*PushoutStats, error) {
	return experiments.RunPushout(cfg, opts)
}

// GenerateChain programmatically builds an n-stage chain design.
func GenerateChain(name string, n int, cells []string) *Design {
	return netlist.GenerateChain(name, n, cells)
}

// GenerateTree programmatically builds a balanced NAND-reduction tree with
// 2^depth inputs.
func GenerateTree(name string, depth int, nandCell string) *Design {
	return netlist.GenerateTree(name, depth, nandCell)
}

// WriteNetlist emits a design in the STA netlist format (the inverse of
// ParseNetlist; quantities round-trip exactly).
func WriteNetlist(w io.Writer, d *Design) error { return netlist.Write(w, d) }

// MeshConfig parameterizes a seeded synthetic mesh netlist — the workload
// generator behind the full-chip timing benchmarks. Start from DefaultMesh
// and override; equal configs generate identical designs.
type MeshConfig = netgen.Config

// DefaultMesh returns the standard mesh configuration for a gate count:
// 40% NAND2, jittered wire parasitics, 5% coupled nets.
func DefaultMesh(gates int) MeshConfig { return netgen.DefaultConfig(gates) }

// GenerateMesh builds a levelized synthetic mesh (10³–10⁶ gates) that
// validates, writes, and times at any worker count.
func GenerateMesh(cfg MeshConfig) (*Design, error) { return netgen.Generate(cfg) }

// SyntheticMeshLibrary returns the analytic NLDM library covering the mesh
// cell set (INVX1, INVX4, NAND2X1) — benchmark designs need no
// transistor-level characterization run.
func SyntheticMeshLibrary() *Library { return netgen.SyntheticLibrary() }

// MeshNoiseSite is one synthetic crosstalk victim on a generated mesh: the
// waveform trio to attach via Timer.Annotate.
type MeshNoiseSite = netgen.NoiseSite

// MeshNoiseSites deterministically synthesizes noise annotations for a
// fraction of a generated mesh's nets.
func MeshNoiseSites(cfg MeshConfig, d *Design, vdd, frac float64) []MeshNoiseSite {
	return netgen.NoiseSites(cfg, d, vdd, frac)
}
