// Package spice implements the nonlinear transient circuit simulator used
// as the golden reference ("Hspice substitute") of the reproduction: dense
// MNA assembly, damped Newton–Raphson per timestep, trapezoidal integration
// with backward-Euler start-up steps, source-breakpoint alignment and
// automatic step halving on Newton failure.
package spice

import (
	"fmt"

	"noisewave/internal/faultinject"
	"noisewave/internal/telemetry"
)

// method selects the integration scheme. Products always integrate with
// trap; the equivalence and integration-order tests also run
// backwardEuler throughout.
type method int

const (
	// trap is trapezoidal integration with BE start-up (default).
	trap method = iota
	// backwardEuler uses backward Euler for every step.
	backwardEuler
)

// String names the method.
func (m method) String() string {
	if m == backwardEuler {
		return "BE"
	}
	return "TR"
}

// Solver constants every run shares.
const (
	maxNewton = 80    // Newton iterations per solve
	gmin      = 1e-12 // conductance from every node to ground (S)
	maxDeltaV = 0.4   // per-iteration node voltage damping clamp (V)
)

// Options configures a simulator. A simulator's options are fixed at New:
// a run takes its context and window as Run's arguments, and no run writes
// to the options.
type Options struct {
	Step float64 // base timestep (required > 0)

	VTol float64 // node-voltage convergence tolerance (default 1 µV)

	// Probes limits recording to these node names; empty records all.
	Probes []string

	// Telemetry, if non-nil, receives the engine's counters — Newton
	// iterations, step accepts/rejects, breakpoint hits — and the wall time
	// of each transient (see EXPERIMENTS.md "Observability" for the metric
	// names). Counters are flushed once per run, so the per-step hot path
	// never touches the registry.
	Telemetry *telemetry.Registry

	// Inject, if non-nil, is the deterministic fault injector driving the
	// chaos test suite and cmd/repro's -chaos mode: it can force transient
	// Newton divergence, NaN-poison converged solutions, and stall the
	// outer time loop (honoring the run's context). Nil — the production
	// default — costs one nil check per site.
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

	// The settings below only the spice tests change.

	// method is the integration scheme (default trap).
	method method

	// recordSteps appends a stepTrace entry to the Result for every
	// accepted step (size, method, breakpoint hit, rejected attempts).
	recordSteps bool

	// recoveryBudget bounds how many steps per run may escalate past the
	// ordinary step-halving retries into the recovery ladder (transient
	// gmin ramp, then backward-Euler fallback — see RecoveryReport). Zero
	// selects the default (25); a negative value disables the ladder, which
	// fails the run on the first step that survives every halving attempt.
	recoveryBudget int
}

// withDefaults returns o with every zero setting that has a default
// filled in. New applies it once.
func (o Options) withDefaults() Options {
	if o.VTol == 0 {
		o.VTol = 1e-6
	}
	if o.recoveryBudget == 0 {
		o.recoveryBudget = 25
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
	return o
}

// checkWindow validates a run's window against the options.
func (o *Options) checkWindow(start, stop float64) error {
	if o.Step <= 0 {
		return fmt.Errorf("spice: Step must be > 0, got %g", o.Step)
	}
	if stop <= start {
		return fmt.Errorf("spice: stop (%g) must be > start (%g)", stop, start)
	}
	return nil
}
