package spice

import (
	"fmt"
	"math"
	"sort"

	"noisewave/internal/circuit"
)

// The solver fast path. Profiling the Table 1 sweeps shows the slow
// Newton loop spends ~70% of its time in dense LU factorization and most
// of the rest re-stamping elements whose contributions never change within
// a solve. The fast path removes both costs:
//
//   - Partitioned stamping: the iterate-independent stamps (resistors,
//     capacitor companions, sources, gmin) are assembled once per solve
//     into a baseline; each Newton iteration restores the baseline with a
//     flat copy and restamps only the nonlinear devices through their
//     cached stamp slots (circuit.Partition).
//
//   - Modified Newton with Jacobian reuse: the LU factorization is cached
//     across iterations and timesteps (linalg.CachedLU) and truly
//     refactored only when the stamp configuration changes (the luKey),
//     when the iterate has moved too far since the factorization, or when
//     convergence stalls (the reuse rules next to newtonFast). Through
//     quiet stretches of a transient this eliminates nearly every
//     factorization.
//
// Correctness hinges on the iteration form. The slow path solves the
// linearized-companion system A(x_k)·x_{k+1} = B(x_k) directly; with a
// stale factorization LU ≈ A(x_old) that form converges to the wrong
// fixed point (LU⁻¹·B(x*) ≠ x*). The fast path therefore iterates in
// residual form,
//
//	r_k = B(x_k) − A(x_k)·x_k,   LU·δ = r_k,   x_{k+1} = x_k + λ·δ,
//
// whose fixed point (r = 0) is the true solution of the assembled system
// no matter how stale the factorization is — staleness only affects the
// convergence *rate*, which the reuse rules monitor. With a fresh LU the
// residual step is algebraically identical to the slow path's update, so
// the two paths agree to solver tolerance: each converged solve differs by
// well under VTol, the transient history carries those sub-VTol gaps
// forward, and the equivalence suite pins the end-to-end divergence to a
// fraction of VTol — shrinking in lockstep when VTol is tightened — on
// identical accepted-step grids; on convergence against a stale LU the solve
// either certifies the remaining error far below VTol or polishes with
// one fresh-Jacobian iteration. The recovery ladder (recovery.go) is
// unchanged and remains the backstop for solves that fail outright.

// luKey tags the stamp configuration a cached factorization was built
// under: any change to the analysis mode, the integration coefficients
// (method or step size) or the gmin homotopy rung makes the baseline
// matrix structurally different, so Ensure must refactor.
type luKey struct {
	mode      circuit.StampMode
	geq, hist float64
	gminExtra float64
}

// sparsity is the cached structural nonzero pattern of the assembled A
// matrix (CSR column lists), valid for one luKey: the baseline matrix is
// identical across solves with the same key, and the slot-cached devices
// can only write their cached positions, so the pattern never changes
// until the key does. The residual loop uses it to skip the ~95% of a
// ladder-network MNA row that is structurally zero.
type sparsity struct {
	valid  bool
	key    luKey
	rowPtr []int32
	cols   []int32
}

// baselineCache is the per-key baseline reuse state: when consecutive
// transient solves share a luKey, the baseline A matrix is bitwise
// identical across them (its values depend only on the key — circuit
// structure, integration coefficients, gmin rung — never on time or
// state), so instead of re-stamping it the solver restores the handful of
// slot positions the nonlinear devices dirtied and rebuilds only the
// right-hand side, which does carry time and companion history.
type baselineCache struct {
	valid bool
	key   luKey

	idxReady bool
	aIdx     []int32   // deduplicated flat A indices the devices may write
	aVals    []float64 // baseline values at aIdx, captured for bl.key
	bIdx     []int32   // deduplicated B indices the devices may write
}

// refreshPattern rebuilds the pattern from the fully assembled (baseline +
// nonlinear) matrix, forcing the slot positions in: a device may stamp an
// exact zero at this iterate and a nonzero at the next.
func (s *Simulator) refreshPattern(key luKey) {
	n := s.ckt.Size()
	if s.slotMark == nil {
		s.slotMark = make([]bool, n*n)
		for _, idx := range s.part.AppendSlotIndices(nil) {
			s.slotMark[idx] = true
		}
	}
	ad := s.asm.A.Data
	s.sp.rowPtr = s.sp.rowPtr[:0]
	s.sp.cols = s.sp.cols[:0]
	s.sp.rowPtr = append(s.sp.rowPtr, 0)
	for i := 0; i < n; i++ {
		row := ad[i*n : (i+1)*n]
		mark := s.slotMark[i*n : (i+1)*n]
		for j, v := range row {
			if v != 0 || mark[j] {
				s.sp.cols = append(s.sp.cols, int32(j))
			}
		}
		s.sp.rowPtr = append(s.sp.rowPtr, int32(len(s.sp.cols)))
	}
	s.sp.valid = true
	s.sp.key = key
	if key.mode == circuit.Transient {
		s.armSparse()
	}
}

// armSparse points the cached-LU's frozen-pattern sparse refactorization at
// the current residual pattern. SetPattern is a no-op when the content is
// unchanged (the pattern is the same for every transient key of one
// circuit), so the elimination order seeded from the first dense
// factorization of this run survives key changes; solveOP clears it per
// run so results stay independent of case scheduling.
func (s *Simulator) armSparse() {
	s.clu.SetPattern(s.ckt.Size(), s.sp.rowPtr, s.sp.cols)
	s.spArmed = true
}

// residual computes r = B − A·x into s.resid over the structural nonzeros
// of A. Skipped zero entries contribute exactly 0 to each dot product, so
// this equals the dense product for any finite iterate.
func (s *Simulator) residual(key luKey) {
	n := s.ckt.Size()
	if !s.sp.valid || s.sp.key != key {
		s.refreshPattern(key)
	}
	ad, x, b := s.asm.A.Data, s.asm.X, s.asm.B
	cols := s.sp.cols
	rowPtr := s.sp.rowPtr
	for i := 0; i < n; i++ {
		row := ad[i*n : (i+1)*n]
		sum := 0.0
		for _, j := range cols[rowPtr[i]:rowPtr[i+1]] {
			sum += row[j] * x[j]
		}
		s.resid[i] = b[i] - sum
	}
}

// buildBaseline assembles the iterate-independent stamps — linear elements
// plus the gmin diagonal — and snapshots them as the solve's baseline.
// Time-varying sources are iterate-independent too: the assembler's Time
// is fixed for the duration of one solve.
func (s *Simulator) buildBaseline(mode circuit.StampMode, gminExtra float64) {
	s.asm.Reset()
	s.part.StampLinear(s.asm, mode)
	g := gmin + gminExtra
	n := s.ckt.NumNodes()
	for i := 0; i < n; i++ {
		s.asm.A.Add(i, i, g)
	}
	s.asm.SnapshotBaseline()
	s.stats.baselineBuilds++
}

// captureBaseline records the baseline values at the device slot positions
// right after a full baseline build, enabling the slot-sparse restore and
// the RHS-only rebuild for later solves under the same key.
func (s *Simulator) captureBaseline(key luKey) {
	bl := &s.bl
	if !bl.idxReady {
		bl.aIdx = bl.aIdx[:0]
		for _, idx := range s.part.AppendSlotIndices(nil) {
			bl.aIdx = append(bl.aIdx, int32(idx))
		}
		bl.aIdx = dedupSortedInt32(bl.aIdx)
		bl.bIdx = dedupSortedInt32(s.part.AppendRHSIndices(bl.bIdx[:0]))
		bl.idxReady = true
	}
	bl.aVals = resized(bl.aVals, len(bl.aIdx))
	ad := s.asm.A.Data
	for i, idx := range bl.aIdx {
		bl.aVals[i] = ad[idx]
	}
	bl.key = key
	bl.valid = true
}

func dedupSortedInt32(v []int32) []int32 {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// The modified-Newton reuse rules: when a stale factorization must be
// replaced by a true refactor, and when a converged iterate computed
// against one may be accepted without a fresh-Jacobian polish iteration.
const (
	// stallRatio: a non-refactored iteration whose step shrank by less
	// than this factor versus the previous one is stalling — the stale
	// Jacobian has stopped contracting and must be refreshed.
	stallRatio = 0.5
	// moveLimit is the cumulative iterate motion (max-norm over node
	// voltages, summed over accepted updates) beyond which the cached
	// Jacobian is out of date regardless of convergence behavior.
	moveLimit = 0.1
	// deepFactor scales the convergence tolerance down to the "deep"
	// tolerance: a stale-Jacobian iterate within tol·deepFactor of its
	// fixed point is accepted outright, because the remaining modified-
	// Newton bias is far below anything downstream can observe.
	deepFactor = 1e-3
	// contractionCap bounds the estimated contraction rate used to
	// extrapolate the remaining error; estimates at or above the cap are
	// not trusted.
	contractionCap = 0.9
)

// stalled reports whether a not-yet-converged iteration (step maxStep,
// previous step prevStep) is contracting too slowly under the stale
// Jacobian. The first iteration of a solve (prevStep = +Inf) never stalls.
func stalled(maxStep, prevStep float64) bool {
	return maxStep > stallRatio*prevStep
}

// deepConverged reports whether an iterate that met the ordinary
// convergence test against a stale Jacobian is certified accurate enough
// to accept without a fresh-Jacobian polish: either the step is already
// below the deep tolerance, or the observed contraction rate ρ bounds the
// remaining error ρ·maxStep/(1−ρ) below it.
func deepConverged(maxStep, prevStep, tol float64) bool {
	deep := tol * deepFactor
	if maxStep < deep {
		return true
	}
	if prevStep <= 0 || math.IsInf(prevStep, 0) {
		return false
	}
	rho := maxStep / prevStep
	if rho >= contractionCap {
		return false
	}
	return rho*maxStep/(1-rho) < deep
}

// carriedConverged reports whether an iterate that met the ordinary
// convergence test on the *first* iteration of a solve — where no in-solve
// contraction estimate exists — is certified by the contraction rate rho
// observed on earlier iterations against the same factorization. Staleness
// is a property of the factorization, not of the solve: consecutive solves
// against one factorization contract at nearly the same rate (and moveLimit
// bounds how far the iterate can drift before a refresh), so the carried
// rate is a sound stand-in for the in-solve estimate deepConverged uses.
func carriedConverged(maxStep, rho, tol float64) bool {
	if !(rho > 0) || rho >= contractionCap {
		return false // unknown (NaN), non-contracting, or untrusted estimate
	}
	return rho*maxStep/(1-rho) < tol*deepFactor
}

// newtonFast is the damped modified-Newton iteration of the fast path;
// same contract as newton.
func (s *Simulator) newtonFast(mode circuit.StampMode, gminExtra float64) error {
	n := s.ckt.Size()
	nNodes := s.ckt.NumNodes()
	key := luKey{mode: mode, gminExtra: gminExtra}
	if mode == circuit.Transient {
		key.geq, key.hist = s.ic.Geq, s.ic.HistI
	}
	// Every nonlinear element is slot-cached, so all writes since the last
	// baseline are at known positions and transient baselines can be
	// restored slot-sparsely instead of by full matrix copies.
	slotRestore := mode == circuit.Transient
	if slotRestore && s.bl.valid && s.bl.key == key {
		// A still holds baseline(bl.key) plus stale slot writes from the
		// previous solve: restore the slots, then rebuild only the
		// right-hand side, which carries the time and companion history the
		// baseline A does not. Bitwise identical to the full rebuild below.
		s.asm.RestoreBaselineAt(s.bl.aIdx, s.bl.aVals, nil)
		for i := range s.asm.B {
			s.asm.B[i] = 0
		}
		s.part.StampLinearRHS(s.asm, mode)
		s.asm.SnapshotBaselineB()
		s.stats.rhsRebuilds++
	} else {
		s.buildBaseline(mode, gminExtra)
		if slotRestore {
			s.captureBaseline(key)
		} else {
			s.bl.valid = false
		}
	}
	if mode == circuit.Transient && !s.spArmed && s.sp.valid && s.sp.key == key {
		// A previous run left a matching residual pattern; re-arm the
		// sparse path for this run (refreshPattern won't fire on a key hit).
		s.armSparse()
	}
	prevMaxDV := math.Inf(1)
	force := false
	staleConv := 0
	for iter := 0; iter < maxNewton; iter++ {
		s.stats.nrIters++
		if s.bl.valid && s.bl.key == key {
			s.asm.RestoreBaselineAt(s.bl.aIdx, s.bl.aVals, s.bl.bIdx)
		} else {
			s.asm.RestoreBaseline()
		}
		s.part.StampNonlinear(s.asm)
		s.stats.restamps++
		// Residual at the current iterate: r = B − A·x.
		s.residual(key)
		if s.moveSinceFactor > moveLimit || math.IsNaN(s.moveSinceFactor) {
			force = true
		}
		refactored, err := s.clu.Ensure(s.asm.A, key, force)
		if err != nil {
			return fmt.Errorf("spice: t=%.6g: %w", s.asm.Time, err)
		}
		force = false
		if refactored {
			s.stats.refactors++
			if s.clu.Sparse() {
				s.stats.sparseRefactors++
			}
			s.moveSinceFactor = 0
			s.rhoEst = math.NaN()
		} else {
			s.stats.luReuses++
		}
		if err := s.clu.SolveInto(s.delta, s.resid); err != nil {
			return err
		}
		// Damped update: clamp node-voltage moves (branch-current entries
		// of δ are applied but, as in the slow path, not clamped against).
		maxDV := 0.0
		for i := 0; i < nNodes; i++ {
			if dv := math.Abs(s.delta[i]); dv > maxDV {
				maxDV = dv
			}
		}
		lambda := 1.0
		if maxDV > maxDeltaV {
			lambda = maxDeltaV / maxDV
		}
		for i := 0; i < n; i++ {
			s.asm.X[i] += lambda * s.delta[i]
		}
		s.moveSinceFactor += lambda * maxDV
		if !refactored && lambda == 1.0 && prevMaxDV > 0 && !math.IsInf(prevMaxDV, 0) {
			// Contraction observed against the current factorization; carried
			// across solves to certify first-iteration convergence below.
			s.rhoEst = maxDV / prevMaxDV
		}
		if lambda == 1.0 && maxDV < s.opts.VTol {
			if refactored || deepConverged(maxDV, prevMaxDV, s.opts.VTol) {
				return nil
			}
			if carriedConverged(maxDV, s.rhoEst, s.opts.VTol) {
				s.stats.carriedAccepts++
				return nil
			}
			// Converged against a stale Jacobian without an accuracy
			// certificate: a further stale iteration is far cheaper than a
			// refactor and usually contracts enough for the in-solve rho
			// certificate (or the deep tolerance) to fire next time around;
			// polish with a true fresh-Jacobian iteration only if two such
			// attempts fail to certify.
			staleConv++
			if staleConv > 2 {
				force = true
			}
		} else if !refactored && stalled(maxDV, prevMaxDV) {
			force = true
		}
		prevMaxDV = maxDV
	}
	return fmt.Errorf("%w (t=%.6g)", ErrNewton, s.asm.Time)
}
