// Package spice implements the nonlinear transient circuit simulator used
// as the golden reference ("Hspice substitute") of the reproduction: dense
// MNA assembly, damped Newton–Raphson per timestep, trapezoidal integration
// with backward-Euler start-up steps, source-breakpoint alignment and
// automatic step halving on Newton failure.
package spice

import (
	"context"
	"fmt"

	"noisewave/internal/faultinject"
	"noisewave/internal/telemetry"
)

// Method selects the integration scheme.
type Method int

const (
	// Trap is trapezoidal integration with BE start-up (default).
	Trap Method = iota
	// BackwardEuler uses backward Euler for every step.
	BackwardEuler
)

// String names the method.
func (m Method) String() string {
	if m == BackwardEuler {
		return "BE"
	}
	return "TR"
}

// Options configures a transient run.
type Options struct {
	Start float64 // first timepoint (default 0)
	Stop  float64 // last timepoint (required > Start)
	Step  float64 // base timestep (required > 0)

	Method Method

	MaxNewton int     // Newton iterations per solve (default 80)
	VTol      float64 // node-voltage convergence tolerance (default 1 µV)
	Gmin      float64 // conductance from every node to ground (default 1e-12 S)
	MaxDeltaV float64 // per-iteration node voltage damping clamp (default 0.4 V)

	// Probes limits recording to these node names; empty records all.
	Probes []string

	// RecordSteps appends a StepTrace entry to the Result for every
	// accepted step (size, method, breakpoint hit, rejected attempts).
	// Diagnostic only; off by default.
	RecordSteps bool

	// Ctx, if non-nil, is polled at every outer time step of the transient
	// loop: when it is canceled or its deadline passes, Run stops and
	// returns the waveforms recorded so far together with an error matching
	// telemetry.ErrCanceled (and the context's own error). nil means the
	// run cannot be canceled.
	Ctx context.Context

	// Telemetry, if non-nil, receives the engine's counters — Newton
	// iterations, step accepts/rejects, breakpoint hits — and the wall time
	// of each transient (see EXPERIMENTS.md "Observability" for the metric
	// names). Counters are flushed once per Run/OperatingPoint call, so the
	// per-step hot path never touches the registry.
	Telemetry *telemetry.Registry

	// RecoveryBudget bounds how many steps per Run may escalate past the
	// ordinary step-halving retries into the recovery ladder (transient
	// gmin ramp, then backward-Euler fallback — see RecoveryReport). Zero
	// selects the default (25); a negative value disables the ladder, which
	// restores the pre-ladder behavior of failing the run on the first step
	// that survives every halving attempt.
	RecoveryBudget int

	// Inject, if non-nil, is the deterministic fault injector driving the
	// chaos test suite and cmd/repro's -chaos mode: it can force transient
	// Newton divergence, NaN-poison converged solutions, and stall the
	// outer time loop (honoring Ctx). Nil — the production default — costs
	// one nil check per site.
	Inject *faultinject.Injector

	// NoFastPath disables the solver fast path (partitioned stamping,
	// cached-LU modified Newton, residual-form updates) and restores the
	// historical solver: full restamp and full LU factorization on every
	// Newton iteration. The fast path is equivalent to solver tolerance
	// (waveforms agree to a fraction of VTol on identical step grids — see
	// the equivalence suite) but not bitwise identical; this switch exists
	// as the reference for that suite.
	NoFastPath bool

	// ReuseResult recycles the previous Run's Result storage (sample
	// buffers, step trace) when the probe set is unchanged, so per-case
	// simulators replayed across a sweep stop allocating per run. The
	// returned *Result is then only valid until the next Run on this
	// simulator; callers must copy what they keep (Waveform already does).
	ReuseResult bool

	// Adaptive enables local-truncation-error timestep control: steps
	// shrink when the solution outruns a linear prediction and stretch
	// (up to MaxStep) through quiescent stretches. Step then acts as the
	// initial/base step.
	Adaptive bool
	// LTETol is the accepted per-step prediction error on node voltages
	// (default 2 mV).
	LTETol float64
	// MaxStep caps adaptive growth (default 20×Step).
	MaxStep float64
	// MinStep floors adaptive shrinking (default Step/512).
	MinStep float64
}

func (o *Options) validate() error {
	if o.Step <= 0 {
		return fmt.Errorf("spice: Step must be > 0, got %g", o.Step)
	}
	if o.Stop <= o.Start {
		return fmt.Errorf("spice: Stop (%g) must be > Start (%g)", o.Stop, o.Start)
	}
	if o.MaxNewton == 0 {
		o.MaxNewton = 80
	}
	if o.VTol == 0 {
		o.VTol = 1e-6
	}
	if o.Gmin == 0 {
		o.Gmin = 1e-12
	}
	if o.MaxDeltaV == 0 {
		o.MaxDeltaV = 0.4
	}
	if o.RecoveryBudget == 0 {
		o.RecoveryBudget = 25
	}
	if o.LTETol == 0 {
		o.LTETol = 2e-3
	}
	if o.MaxStep == 0 {
		o.MaxStep = 20 * o.Step
	}
	if o.MinStep == 0 {
		o.MinStep = o.Step / 512
	}
	return nil
}
