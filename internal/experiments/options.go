package experiments

import (
	"context"
	"errors"
	"time"

	"noisewave/internal/faultinject"
	"noisewave/internal/sweep"
	"noisewave/internal/telemetry"
	"noisewave/internal/trace"
)

// SweepOptions is the shared sweep-control block embedded by every sweep
// experiment's option struct (Table1Options, PushoutOptions) and passed to
// RunPSweep: worker-pool sizing, deterministic seeding, progress
// reporting, cancellation and telemetry live here once instead of being
// duplicated per experiment.
//
// In a composite literal the block is set as a named field:
//
//	experiments.Table1Options{
//		Cases: 200, Range: 1e-9, P: 35,
//		SweepOptions: experiments.SweepOptions{Workers: 8, Ctx: ctx},
//	}
//
// while field access stays flat (opts.Workers) through Go's embedding.
type SweepOptions struct {
	// Workers sizes the sweep worker pool: <= 0 uses all available cores,
	// and N >= 1 fans the independent cases out over N workers (1 runs
	// them one at a time in case order). Results are aggregated in case
	// order, so any worker count produces bit-identical statistics.
	Workers int
	// Seed drives any randomized case generation (e.g. the pushout
	// Monte-Carlo alignment draws). Ignored by fully deterministic sweeps.
	Seed int64
	// Progress, if non-nil, is called after each completed case. Calls are
	// serialized by the sweep engine.
	Progress func(done, total int)
	// Ctx, if non-nil, cancels the experiment: case dispatch stops, the
	// in-flight transistor-level transients stop at their next time step,
	// and the driver returns statistics over the completed cases together
	// with an error matching telemetry.ErrCanceled. nil means the run
	// cannot be canceled.
	Ctx context.Context
	// Telemetry, if non-nil, observes the whole pipeline under the sweep:
	// spice engine counters, replay-cache outcomes, per-technique fit
	// timers, sweep queue/worker metrics and per-experiment wall timers.
	Telemetry *telemetry.Registry
	// Tracer, if non-nil, records hierarchical spans: one root per sweep
	// case with the experiment's case attrs (aggressor offsets, health),
	// with the golden transient, per-technique fits/replays and spice
	// internals nested beneath. Tracing never changes numbers — results
	// are bit-identical with it on or off.
	Tracer *trace.Tracer

	// KeepGoing quarantines failing cases (error, panic, or timeout)
	// instead of aborting the experiment: the sweep completes the
	// remaining cases, statistics are computed over the healthy ones with
	// an explicit exclusion count, and the result carries the
	// sweep.FailureReport naming each quarantined case.
	KeepGoing bool
	// CaseTimeout, if > 0, bounds each case with its own deadline; a case
	// exceeding it fails with sweep.ErrCaseTimeout (quarantined under
	// KeepGoing).
	CaseTimeout time.Duration
	// Inject, if non-nil, threads the deterministic fault injector through
	// the sweep and into every worker's spice engine — the backbone of
	// cmd/repro's -chaos mode.
	Inject *faultinject.Injector
	// noFastPath disables the spice solver fast path in every transient the
	// sweep runs (see spice.Options.NoFastPath). Only the fast-path
	// equivalence tests set it: the slow path is their reference.
	noFastPath bool
}

// ctx returns the configured context, defaulting to Background.
func (o SweepOptions) ctx() context.Context { return orBackground(o.Ctx) }

// orBackground returns ctx, or context.Background when ctx is nil.
func orBackground(ctx context.Context) context.Context {
	if ctx != nil {
		return ctx
	}
	return context.Background()
}

// runSweep dispatches n independent cases over the sweep worker pool. It
// returns the partial-results contract of sweep.RunPartial: on
// cancellation the completed cases are kept and flagged.
func runSweep[W, R any](so SweepOptions, n int,
	newWorker func(int) (W, error),
	do func(context.Context, int, W) (R, error)) ([]R, []bool, *sweep.FailureReport, error) {

	return sweep.RunPartial(so.ctx(), n, sweep.Options{
		Workers: so.Workers, Progress: so.Progress, Telemetry: so.Telemetry,
		Tracer:    so.Tracer,
		KeepGoing: so.KeepGoing, CaseTimeout: so.CaseTimeout,
		Inject: so.Inject,
	}, newWorker, do)
}

// canceled reports whether err is a cancellation (and so partial results
// are meaningful and should be surfaced alongside it).
func canceled(err error) bool {
	return errors.Is(err, telemetry.ErrCanceled)
}
