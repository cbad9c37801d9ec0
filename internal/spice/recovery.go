package spice

import (
	"errors"
	"fmt"
	"math"

	"noisewave/internal/circuit"
	"noisewave/internal/obs/logctx"
	"noisewave/internal/trace"
)

// ErrNonFinite marks a Newton solve whose converged solution contains NaN
// or Inf — numerically "successful" but physically garbage. Internally it
// triggers the same rejection/recovery path as non-convergence; it only
// surfaces (wrapped together with ErrNewton) when the recovery ladder is
// exhausted.
var ErrNonFinite = errors.New("spice: non-finite solution")

// RecoveryReport is the typed account of what the transient recovery
// ladder did during one Run. The ladder escalates deterministically when a
// step fails: ordinary step halving first (rung 1, already part of the
// attempt loop), then a transient gmin ramp at a conservative step (rung
// 2), then a backward-Euler fallback at a further reduced step (rung 3).
// Escalations past rung 1 consume the per-Run budget
// (Options.RecoveryBudget); when the budget is spent or the last rung
// fails, the run returns an error matching ErrNewton and the report's
// Exhausted flag is set.
type RecoveryReport struct {
	// StepCuts counts accepted steps that needed at least one halving
	// retry (rung 1).
	StepCuts int
	// GminRamps counts steps recovered by the transient gmin ramp (rung 2).
	GminRamps int
	// BEFallbacks counts steps recovered by the backward-Euler fallback
	// (rung 3).
	BEFallbacks int
	// NonFinite counts solves rejected because the solution vector carried
	// NaN/Inf (diverged residual or injected poison).
	NonFinite int
	// BudgetUsed is how many ladder escalations (rungs 2–3) this run
	// consumed, out of Budget.
	BudgetUsed int
	// Budget is the effective Options.RecoveryBudget of the run.
	Budget int
	// Exhausted is set when a step failed every rung (or the budget ran
	// out) and the run was abandoned.
	Exhausted bool
}

// Recovered reports whether any step needed the ladder proper (rungs 2–3).
// Step halving alone is routine and does not count.
func (r RecoveryReport) Recovered() bool { return r.GminRamps+r.BEFallbacks > 0 }

// Absorb accumulates another report into r (used by callers that run
// several transients per logical case, e.g. a gate backend's replays).
func (r *RecoveryReport) Absorb(o RecoveryReport) {
	r.StepCuts += o.StepCuts
	r.GminRamps += o.GminRamps
	r.BEFallbacks += o.BEFallbacks
	r.NonFinite += o.NonFinite
	r.BudgetUsed += o.BudgetUsed
	r.Exhausted = r.Exhausted || o.Exhausted
}

// String renders the rung counters compactly for logs and failure reports.
func (r RecoveryReport) String() string {
	return fmt.Sprintf("recovery{cuts=%d gmin=%d be=%d nonfinite=%d budget=%d/%d exhausted=%v}",
		r.StepCuts, r.GminRamps, r.BEFallbacks, r.NonFinite, r.BudgetUsed, r.Budget, r.Exhausted)
}

// nonFiniteAt returns the index of the first NaN/Inf entry, or -1.
func nonFiniteAt(x []float64) int {
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return i
		}
	}
	return -1
}

// solveTransient is the transient Newton solve with the robustness wrapper
// the recovery ladder relies on: injected divergence fires before the
// solve, injected NaN poisoning fires after a success, and a converged
// solution containing NaN/Inf is rejected as ErrNonFinite instead of being
// accepted into the history and the recorded waveforms.
func (s *Simulator) solveTransient(gminExtra float64) error {
	if s.opts.Inject.NewtonDiverges() {
		return fmt.Errorf("%w (injected divergence at t=%.6g)", ErrNewton, s.asm.Time)
	}
	if err := s.solve(circuit.Transient, gminExtra); err != nil {
		return err
	}
	if s.opts.Inject.PoisonNaN() {
		s.asm.X[0] = math.NaN()
	}
	if i := nonFiniteAt(s.asm.X); i >= 0 {
		s.stats.nonFinite++
		if s.recovery != nil {
			s.recovery.NonFinite++
		}
		return fmt.Errorf("%w: x[%d]=%g at t=%.6g", ErrNonFinite, i, s.asm.X[i], s.asm.Time)
	}
	return nil
}

// recoverStep is the escalation ladder for a step that survived every
// ordinary halving attempt. It consumes one unit of the run's recovery
// budget and tries, in order:
//
//	rung 2: a transient gmin ramp — the step is re-solved at a
//	        conservative size with extra conductance from every node to
//	        ground, ramped down to zero so the solve walks a homotopy from
//	        a heavily damped circuit to the true one;
//	rung 3: a backward-Euler fallback — the same gmin ramp, but with the
//	        L-stable BE integrator at a further reduced step, which kills
//	        the trapezoidal oscillation modes that block convergence on
//	        hard nonlinear corners.
//
// On success it returns the step size, the integration method used and
// whether the step landed on a source breakpoint; the caller accepts the
// state exactly as if the ordinary loop had produced it. On failure the
// prior state is restored and the returned error wraps ErrNewton, naming
// the rung each escalation reached.
func (s *Simulator) recoverStep(t, base float64, rec *RecoveryReport, xPrev []float64) (h float64, method Method, hitBP bool, err error) {

	if rec.Budget <= 0 || rec.BudgetUsed >= rec.Budget {
		rec.Exhausted = true
		s.stats.exhausted++
		s.span.Event("spice.recovery.exhausted", trace.Float("t_s", t),
			trace.String("cause", "budget"))
		logctx.From(s.opts.Ctx).Warn("recovery exhausted",
			"t_s", t, "cause", "budget", "used", rec.BudgetUsed, "budget", rec.Budget)
		return 0, 0, false, fmt.Errorf("%w at t=%.6g: recovery budget exhausted (%d/%d escalations; rungs: step-cut, gmin-ramp, BE-fallback)",
			ErrNewton, t, rec.BudgetUsed, rec.Budget)
	}
	rec.BudgetUsed++

	// tryRamp re-solves the step at size h with method m under a gmin
	// homotopy. Intermediate ramp solutions are kept as the starting
	// iterate of the next (less damped) solve; any failure restores the
	// pre-step state.
	tryRamp := func(h float64, m Method) error {
		ic := circuit.IntegrationCoeffs{Geq: 1 / h, HistI: 0}
		if m == Trap {
			ic = circuit.IntegrationCoeffs{Geq: 2 / h, HistI: -1}
		}
		s.ic = ic
		for _, g := range []float64{1e-3, 1e-5, 1e-7, 1e-9, 0} {
			s.part.BeginStep(ic)
			s.asm.Time = t + h
			if err := s.solveTransient(g); err != nil {
				copy(s.asm.X, xPrev)
				return err
			}
		}
		return nil
	}

	// Rung 2: gmin ramp at a conservative fraction of the base step.
	h = math.Max(base/8, s.opts.MinStep)
	h, hitBP = s.alignStep(t, h)
	errGmin := tryRamp(h, s.opts.Method)
	if errGmin == nil {
		rec.GminRamps++
		s.stats.gminRamps++
		s.span.Event("spice.recovery.gmin_ramp", trace.Float("t_s", t))
		logctx.From(s.opts.Ctx).Debug("recovery rung", "rung", "gmin_ramp", "t_s", t, "h_s", h)
		return h, s.opts.Method, hitBP, nil
	}

	// Rung 3: backward-Euler fallback at a further reduced step.
	h = math.Max(h/4, s.opts.MinStep)
	h, hitBP = s.alignStep(t, h)
	errBE := tryRamp(h, BackwardEuler)
	if errBE == nil {
		rec.BEFallbacks++
		s.stats.beFallbacks++
		s.span.Event("spice.recovery.be_fallback", trace.Float("t_s", t))
		logctx.From(s.opts.Ctx).Debug("recovery rung", "rung", "be_fallback", "t_s", t, "h_s", h)
		return h, BackwardEuler, hitBP, nil
	}

	rec.Exhausted = true
	s.stats.exhausted++
	s.span.Event("spice.recovery.exhausted", trace.Float("t_s", t),
		trace.String("cause", "ladder"))
	logctx.From(s.opts.Ctx).Warn("recovery exhausted",
		"t_s", t, "cause", "ladder", "used", rec.BudgetUsed, "budget", rec.Budget)
	return 0, 0, false, fmt.Errorf("%w at t=%.6g: recovery ladder exhausted (rung gmin-ramp: %w; rung BE-fallback: %w; budget %d/%d)",
		ErrNewton, t, errGmin, errBE, rec.BudgetUsed, rec.Budget)
}
