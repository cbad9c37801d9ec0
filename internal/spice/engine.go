package spice

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"noisewave/internal/circuit"
	"noisewave/internal/linalg"
	"noisewave/internal/telemetry"
	"noisewave/internal/trace"
)

// ErrNewton is returned when the Newton iteration fails to converge even
// after step halving.
var ErrNewton = errors.New("spice: newton iteration failed to converge")

// Simulator runs transient analyses on a circuit. A Simulator may be reused
// for several runs, but a single Simulator is not safe for concurrent use.
type Simulator struct {
	ckt  *circuit.Circuit
	opts Options

	asm  *circuit.Assembler
	lu   *linalg.LU
	xNew []float64

	// Fast-path state (see fastpath.go): the linear/nonlinear element
	// partition, the cached LU factorization, and the residual/step buffers
	// of the modified-Newton iteration. fast is !Options.NoFastPath.
	part            *circuit.Partition
	clu             linalg.CachedLU[luKey]
	fast            bool
	ic              circuit.IntegrationCoeffs // coefficients of the step being solved
	resid, delta    []float64
	moveSinceFactor float64
	rhoEst          float64       // carried contraction estimate for the current factorization
	sp              sparsity      // residual nonzero pattern, per luKey
	slotMark        []bool        // flat A indices the slot-cached devices may write
	bl              baselineCache // per-key baseline reuse (slot-sparse restore)
	spArmed         bool          // sparse refactorization armed this run

	// Per-run state reused across Run calls so the steady-state transient
	// loop allocates nothing: every Run records into res, whose probes New
	// resolved to probeIDs.
	tr       transient
	probeIDs []circuit.NodeID
	res      *Result

	// prefix is the recorded quiet prefix runs resume from (prefix.go);
	// nil until RecordPrefix.
	prefix *prefix

	// stats accumulates engine counters for the current solve; they are
	// flushed to Options.Telemetry once per run or DC solve so the per-step
	// and per-iteration hot paths never touch the registry.
	stats engineStats

	// recovery points at the active Run's report so the solve wrapper can
	// account non-finite rejections; nil outside a transient.
	recovery *RecoveryReport

	// span is the active Run's "spice.transient" trace span; the recovery
	// ladder posts its rung events here. Nil (no tracer in the run's
	// context, or outside a transient) is a no-op.
	span *trace.Span

	// testForceReject, when set, rejects an attempted step as if Newton had
	// failed (the step is halved and retried). Test-only: it exercises the
	// rejection path at chosen timepoints without having to construct a
	// circuit that fails to converge on demand.
	testForceReject func(t, h float64) bool
}

// New creates a simulator, fills in the option defaults and resolves the
// probes; the step and each run's window are validated at Run time.
func New(c *circuit.Circuit, o Options) *Simulator {
	s := &Simulator{ckt: c, opts: o.withDefaults(), asm: circuit.NewAssembler(c)}
	n := c.Size()
	s.xNew = make([]float64, n)
	s.resid = make([]float64, n)
	s.delta = make([]float64, n)
	s.part = circuit.NewPartition(c)
	s.fast = !s.opts.NoFastPath
	s.res = newResult(s.resolveProbes())
	return s
}

// transient is the outer-loop state of one Run, held on the Simulator so
// its buffers (breakpoints, previous-step iterates) survive across runs.
type transient struct {
	bps              []float64
	stop             float64 // end of the run's window
	t, base, hPrev   float64
	beSteps          int
	xPrev, xPrevPrev []float64
	nNodes           int
}

// engineStats are the per-solve telemetry accumulators.
type engineStats struct {
	nrIters         int64 // Newton–Raphson iterations (DC + transient)
	accepts         int64 // accepted transient steps
	rejects         int64 // rejected step attempts (Newton failure or LTE)
	bpHits          int64 // accepted steps that landed on a source breakpoint
	canceled        int64 // 1 when the run was stopped by its context
	stepCuts        int64 // accepted steps that needed >= 1 halving (ladder rung 1)
	gminRamps       int64 // steps recovered by the transient gmin ramp (rung 2)
	beFallbacks     int64 // steps recovered by the BE fallback (rung 3)
	nonFinite       int64 // solves rejected for a NaN/Inf solution vector
	exhausted       int64 // runs abandoned with the ladder exhausted
	baselineBuilds  int64 // fast path: linear-baseline assemblies (full rebuilds)
	rhsRebuilds     int64 // fast path: solves served by the per-key RHS-only rebuild
	restamps        int64 // fast path: per-iteration nonlinear restamps
	refactors       int64 // fast path: true LU factorizations
	sparseRefactors int64 // fast path: refactors served by the frozen-pattern sparse path
	luReuses        int64 // fast path: iterations served by a cached LU
	carriedAccepts  int64 // fast path: solves accepted on the carried-rho certificate
	prefixResumes   int64 // fast path: 1 when the run resumed from the quiet prefix
	prefixSteps     int64 // fast path: accepted steps the resume skipped
	wallStart       time.Time
}

// flushTelemetry publishes the accumulated counters and the solve's wall
// time under the given run counter / wall timer names, then resets the
// accumulators. Nil-safe on the registry.
func (s *Simulator) flushTelemetry(runCounter, wallTimer string) {
	powEvals, powHits := s.part.TakePowCounts()
	reg := s.opts.Telemetry
	if reg != nil {
		reg.Counter(runCounter).Inc()
		reg.Counter("spice.newton_iterations").Add(s.stats.nrIters)
		reg.Counter("spice.steps_accepted").Add(s.stats.accepts)
		reg.Counter("spice.steps_rejected").Add(s.stats.rejects)
		reg.Counter("spice.breakpoints_hit").Add(s.stats.bpHits)
		reg.Counter("spice.runs_canceled").Add(s.stats.canceled)
		reg.Counter("spice.recovery.step_cuts").Add(s.stats.stepCuts)
		reg.Counter("spice.recovery.gmin_ramps").Add(s.stats.gminRamps)
		reg.Counter("spice.recovery.be_fallbacks").Add(s.stats.beFallbacks)
		reg.Counter("spice.recovery.exhausted").Add(s.stats.exhausted)
		reg.Counter("spice.rejected_nonfinite").Add(s.stats.nonFinite)
		// The fast-path counters only appear once the fast path ran, so a
		// NoFastPath run's snapshot matches the pre-fast-path engine.
		if s.stats.baselineBuilds > 0 || s.stats.refactors > 0 || s.stats.luReuses > 0 {
			reg.Counter("spice.fastpath.baseline_builds").Add(s.stats.baselineBuilds)
			reg.Counter("spice.fastpath.rhs_rebuilds").Add(s.stats.rhsRebuilds)
			reg.Counter("spice.fastpath.restamps").Add(s.stats.restamps)
			reg.Counter("spice.fastpath.refactors").Add(s.stats.refactors)
			reg.Counter("spice.fastpath.sparse_refactors").Add(s.stats.sparseRefactors)
			reg.Counter("spice.fastpath.lu_reuses").Add(s.stats.luReuses)
			reg.Counter("spice.fastpath.carried_accepts").Add(s.stats.carriedAccepts)
			reg.Counter("spice.fastpath.power_evals").Add(powEvals)
			reg.Counter("spice.fastpath.power_memo_hits").Add(powHits)
			reg.Counter("spice.fastpath.prefix_resumes").Add(s.stats.prefixResumes)
			reg.Counter("spice.fastpath.prefix_steps_reused").Add(s.stats.prefixSteps)
		}
		reg.Timer(wallTimer).Observe(time.Since(s.stats.wallStart).Seconds())
		// Distribution of NR effort per solve: a long tail here means a few
		// hard corners dominate, which the run counters alone cannot show.
		reg.HistogramWith("spice.newton_iterations_per_run",
			telemetry.IterationBounds()).Observe(float64(s.stats.nrIters))
	}
	s.stats = engineStats{}
}

// assemble stamps every element at the assembler's current iterate, then
// adds gmin from every node to ground. This is the slow path's full
// per-iteration assembly; the fast path splits it into buildBaseline +
// the per-iteration nonlinear restamp (see fastpath.go).
func (s *Simulator) assemble(mode circuit.StampMode) {
	s.asm.Reset()
	for _, e := range s.ckt.Elements() {
		e.Stamp(s.asm, mode)
	}
	n := s.ckt.NumNodes()
	for i := 0; i < n; i++ {
		s.asm.A.Add(i, i, gmin)
	}
}

// solve runs one Newton solve at the assembler's current Time through the
// configured path: the partitioned modified-Newton fast path by default,
// the historical full-assembly/full-factorization loop under NoFastPath.
func (s *Simulator) solve(mode circuit.StampMode, gminExtra float64) error {
	if s.fast {
		return s.newtonFast(mode, gminExtra)
	}
	return s.newton(mode, gminExtra)
}

// newton runs a damped Newton iteration at the assembler's current Time,
// starting from the current iterate. gminExtra adds additional conductance
// to ground (used by the DC gmin-stepping homotopy).
func (s *Simulator) newton(mode circuit.StampMode, gminExtra float64) error {
	n := s.ckt.Size()
	nNodes := s.ckt.NumNodes()
	for iter := 0; iter < maxNewton; iter++ {
		s.stats.nrIters++
		s.assemble(mode)
		if gminExtra > 0 {
			for i := 0; i < nNodes; i++ {
				s.asm.A.Add(i, i, gminExtra)
			}
		}
		var err error
		if s.lu == nil {
			s.lu, err = linalg.NewLU(s.asm.A)
		} else {
			err = s.lu.Refactor(s.asm.A)
		}
		if err != nil {
			return fmt.Errorf("spice: t=%.6g: %w", s.asm.Time, err)
		}
		if err := s.lu.SolveInto(s.xNew, s.asm.B); err != nil {
			return err
		}
		// Damped update: clamp node-voltage moves.
		maxDV := 0.0
		lambda := 1.0
		for i := 0; i < nNodes; i++ {
			dv := math.Abs(s.xNew[i] - s.asm.X[i])
			if dv > maxDV {
				maxDV = dv
			}
		}
		if maxDV > maxDeltaV {
			lambda = maxDeltaV / maxDV
		}
		for i := 0; i < n; i++ {
			s.asm.X[i] += lambda * (s.xNew[i] - s.asm.X[i])
		}
		if lambda == 1.0 && maxDV < s.opts.VTol {
			return nil
		}
	}
	return fmt.Errorf("%w (t=%.6g)", ErrNewton, s.asm.Time)
}

// solveOP solves the DC operating point with the sources at their values
// at start, using a gmin-stepping homotopy for robustness, and leaves the
// solution in the assembler. Run calls it, so the DC solve's Newton
// iterations are accounted to the enclosing transient.
func (s *Simulator) solveOP(start float64) error {
	s.asm.Time = start
	s.ic = circuit.IntegrationCoeffs{}
	// A cached factorization from a previous run (or a previous homotopy)
	// was built at a different iterate; start every DC solve fresh. The
	// sparse elimination order and the per-key baseline capture are also
	// per-run state: reseeding them inside each run keeps results
	// independent of which case a reused Simulator ran previously (and so
	// independent of sweep worker scheduling).
	s.clu.Invalidate()
	s.clu.ClearPattern()
	s.spArmed = false
	s.bl.valid = false
	s.moveSinceFactor = 0
	s.rhoEst = math.NaN()
	s.part.ResetMemo()
	linalg.Fill(s.asm.X, 0)
	// Try a direct solve first; fall back to gmin stepping.
	if err := s.solve(circuit.DC, 0); err != nil {
		linalg.Fill(s.asm.X, 0)
		for _, g := range []float64{1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 0} {
			if err := s.solve(circuit.DC, g); err != nil {
				return fmt.Errorf("spice: DC homotopy failed at gmin=%g: %w", g, err)
			}
		}
	}
	if i := nonFiniteAt(s.asm.X); i >= 0 {
		s.stats.nonFinite++
		return fmt.Errorf("spice: DC operating point: %w: x[%d]=%g", ErrNonFinite, i, s.asm.X[i])
	}
	return nil
}

// breakpoints collects and sorts all source breakpoints inside the run
// window (start, stop), appending into buf (whose storage is reused).
func (s *Simulator) breakpoints(buf []float64, start, stop float64) []float64 {
	bps := buf
	for _, v := range s.part.Sources() {
		for _, t := range v.Value.Breakpoints() {
			if t > start && t < stop {
				bps = append(bps, t)
			}
		}
	}
	sort.Float64s(bps)
	// Deduplicate.
	out := bps[:0]
	for i, t := range bps {
		if i == 0 || t-out[len(out)-1] > 1e-18 {
			out = append(out, t)
		}
	}
	return out
}

// resized returns buf with length n, reusing its storage when possible.
func resized(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// probeMissing marks a probe name that resolved to no circuit node; its
// samples record as NaN (caught by Result.Waveform's validation).
const probeMissing = circuit.NodeID(-2)

// resolveProbes returns the probe name list and caches the matching node
// IDs in s.probeIDs. New calls it once.
func (s *Simulator) resolveProbes() []string {
	names := s.opts.Probes
	if len(names) == 0 {
		names = s.ckt.NodeNames()
	}
	for _, n := range names {
		id, ok := s.ckt.LookupNode(n)
		if !ok {
			id = probeMissing
		}
		s.probeIDs = append(s.probeIDs, id)
	}
	return names
}

// recordSample appends the current iterate's probe voltages at time t.
func (s *Simulator) recordSample(res *Result, t float64) {
	res.Time = append(res.Time, t)
	for i, id := range s.probeIDs {
		v := math.NaN()
		if id != probeMissing {
			v = s.asm.V(id)
		}
		res.v[i] = append(res.v[i], v)
	}
}

// alignStep trims a candidate step to the next source breakpoint and
// reports whether the step lands on one (within tolerance). It is
// re-evaluated on every attempt: a step that is halved after a Newton
// or LTE rejection may still land on — or newly straddle — a
// breakpoint, and the post-breakpoint BE damping must not be lost
// just because the first attempt was rejected.
func (s *Simulator) alignStep(t, h float64) (float64, bool) {
	for _, bp := range s.tr.bps {
		if bp > t+1e-21 && bp < t+h-1e-21 {
			return bp - t, true
		}
		if math.Abs(bp-(t+h)) <= 1e-21 {
			return h, true
		}
		if bp >= t+h {
			break
		}
	}
	return h, false
}

// Run performs the transient analysis over [start, stop]: DC operating
// point at start, then fixed-base stepping with breakpoint alignment, BE
// start-up steps, and step halving on Newton failure. A run that
// reproduces the recorded quiet prefix (see RecordPrefix) resumes from its
// latest usable checkpoint instead, with bit-identical samples.
//
// A Simulator may run many windows — callers that reuse one circuit across
// cases replace only the source values between runs. Every run starts from
// its own DC operating point, or from a prefix checkpoint that reproduces
// it bit for bit, so no state leaks from the previous case. Every run
// records into the simulator's one Result, so the returned *Result is
// valid only until the next Run or RecordPrefix; callers copy what they
// keep (Waveform already does).
//
// ctx is polled at every outer time step: once it is canceled (or its
// deadline passes), Run stops and returns the waveforms recorded so far
// together with an error matching telemetry.ErrCanceled (and the context's
// own error). ctx also carries the run's trace span parent and logger; a
// nil ctx runs without cancellation.
func (s *Simulator) Run(ctx context.Context, start, stop float64) (*Result, error) {
	return s.run(ctx, start, stop, nil)
}

// run is Run; with a non-nil record it records the quiet prefix into
// record instead of resuming from one (see RecordPrefix).
func (s *Simulator) run(ctx context.Context, start, stop float64, record *prefix) (*Result, error) {
	if err := s.opts.checkWindow(start, stop); err != nil {
		return nil, err
	}
	s.stats.wallStart = time.Now()
	defer s.flushTelemetry("spice.transients", "spice.transient_seconds")
	// The span-closing defer is registered after the telemetry flush so it
	// runs first, while the stats it snapshots are still live.
	_, span := trace.Start(ctx, "spice.transient",
		trace.Float("start_s", start), trace.Float("stop_s", stop))
	s.span = span
	defer func() {
		span.SetAttr(
			trace.Int64("newton_iterations", s.stats.nrIters),
			trace.Int64("steps_accepted", s.stats.accepts),
			trace.Int64("steps_rejected", s.stats.rejects),
		)
		span.End()
		s.span = nil
	}()
	st := &s.tr
	st.bps = s.breakpoints(st.bps[:0], start, stop)
	st.stop = stop
	var cp *checkpoint
	if record == nil {
		cp = s.resumePoint(ctx, start, stop, st.bps)
	}
	if cp == nil {
		opSpan := span.Child("spice.op")
		if err := s.solveOP(start); err != nil {
			opSpan.SetAttr(trace.String("error", err.Error()))
			opSpan.End()
			return nil, err
		}
		opSpan.End()
		s.part.InitState(s.asm)
	}

	res := s.res
	res.reset()
	rec := &res.Recovery
	if s.opts.recoveryBudget > 0 {
		rec.Budget = s.opts.recoveryBudget
	}
	s.recovery = rec
	defer func() { s.recovery = nil }()

	n := s.ckt.Size()
	st.xPrev = resized(st.xPrev, n)
	st.xPrevPrev = resized(st.xPrevPrev, n)
	st.nNodes = s.ckt.NumNodes()
	if cp != nil {
		s.resume(cp, res)
	} else {
		s.recordSample(res, start)
		st.t = start
		st.base = s.opts.Step
		// beSteps counts remaining forced backward-Euler steps (used at
		// start and after each breakpoint to damp trapezoidal ringing).
		st.beSteps = 2
		copy(st.xPrev, s.asm.X)
		// Previous accepted state for the adaptive LTE predictor.
		copy(st.xPrevPrev, s.asm.X)
		st.hPrev = 0.0
	}
	if record != nil {
		record.extend(s, res)
	}

	for st.t < stop-1e-21 {
		if err := s.stepTransient(ctx, res, rec, st); err != nil {
			return res, err
		}
		if record != nil && !record.extend(s, res) {
			break
		}
	}
	return res, nil
}

// stepTransient advances the transient by one accepted outer step: it
// polls the context, attempts the step with halving on Newton failure or
// excessive LTE, escalates through the recovery ladder when every halving
// attempt fails, commits the dynamic-element state, records the sample and
// updates the adaptive base step.
func (s *Simulator) stepTransient(ctx context.Context, res *Result, rec *RecoveryReport, st *transient) error {
	t := st.t
	if ctx != nil {
		select {
		case <-ctx.Done():
			s.stats.canceled = 1
			s.span.Event("spice.canceled", trace.Float("t_s", t))
			return telemetry.Canceled(ctx, "spice: transient canceled at t=%.6g (of %.6g)", t, st.stop)
		default:
		}
	}
	s.opts.Inject.StallPoint(ctx)
	h := st.base
	if t+h > st.stop {
		h = st.stop - t
	}

	// Attempt the step, halving on Newton failure or excessive LTE.
	accepted := false
	hitBP := false
	rejects := 0
	var lte float64
	var m method
	for attempt := 0; attempt < 16; attempt++ {
		h, hitBP = s.alignStep(t, h)
		m = s.opts.method
		if st.beSteps > 0 {
			m = backwardEuler
		}
		if s.testForceReject != nil && s.testForceReject(t, h) {
			h /= 2
			rejects++
			continue
		}
		ic := circuit.IntegrationCoeffs{Geq: 1 / h, HistI: 0}
		if m == trap {
			ic = circuit.IntegrationCoeffs{Geq: 2 / h, HistI: -1}
		}
		s.ic = ic
		s.part.BeginStep(ic)
		s.asm.Time = t + h
		if err := s.solveTransient(0); err != nil {
			// Reject (non-convergence or a non-finite solution):
			// restore the iterate and halve the step.
			copy(s.asm.X, st.xPrev)
			h /= 2
			rejects++
			continue
		}
		// Adaptive: compare against the linear prediction from the
		// two previous accepted points.
		if s.opts.Adaptive && st.hPrev > 0 && st.beSteps == 0 {
			lte = 0
			for i := 0; i < st.nNodes; i++ {
				pred := st.xPrev[i] + (st.xPrev[i]-st.xPrevPrev[i])*(h/st.hPrev)
				if d := math.Abs(s.asm.X[i] - pred); d > lte {
					lte = d
				}
			}
			if lte > s.opts.LTETol && h > s.opts.MinStep {
				copy(s.asm.X, st.xPrev)
				h = math.Max(h/2, s.opts.MinStep)
				rejects++
				continue
			}
		}
		accepted = true
		break
	}
	recovered := false
	if !accepted {
		// Every halving attempt failed (previously fatal): escalate
		// through the recovery ladder — gmin ramp, then BE fallback —
		// within the run's recovery budget.
		s.stats.rejects += int64(rejects)
		rejects = 0
		var rerr error
		h, m, hitBP, rerr = s.recoverStep(ctx, t, st.base, rec, st.xPrev)
		if rerr != nil {
			return rerr
		}
		recovered = true
	}
	if rejects > 0 {
		rec.StepCuts++
		s.stats.stepCuts++
	}
	s.stats.accepts++
	s.stats.rejects += int64(rejects)
	if hitBP {
		s.stats.bpHits++
	}
	s.part.EndStep(s.asm)
	t += h
	st.t = t
	copy(st.xPrevPrev, st.xPrev)
	copy(st.xPrev, s.asm.X)
	st.hPrev = h
	s.recordSample(res, t)
	if s.opts.recordSteps {
		res.trace = append(res.trace, stepTrace{
			T: t, H: h, Method: m, HitBP: hitBP, Rejects: rejects,
		})
	}
	if st.beSteps > 0 {
		st.beSteps--
	}
	if hitBP {
		st.beSteps = 2
	}
	if recovered {
		// The circuit just proved itself hard at this timepoint: damp
		// the next steps with backward Euler (as after a breakpoint)
		// and skip this step's adaptive growth, whose LTE estimate is
		// meaningless across the ladder.
		st.beSteps = 2
		return nil
	}
	// Adaptive growth through quiet stretches.
	if s.opts.Adaptive && accepted && st.beSteps == 0 {
		switch {
		case lte < s.opts.LTETol/4:
			st.base = math.Min(st.base*1.5, s.opts.MaxStep)
		case lte > s.opts.LTETol/2:
			st.base = math.Max(st.base/1.5, s.opts.MinStep)
		}
		if h < st.base {
			// A halved step also caps the next base so recovery is
			// gradual after a rejection.
			st.base = math.Max(h*1.5, s.opts.MinStep)
		}
	}
	return nil
}
