package linalg

import (
	"errors"
	"math"
)

// ErrNoFactorization is returned by CachedLU.SolveInto before the first
// successful Ensure (or after one that failed).
var ErrNoFactorization = errors.New("linalg: no valid cached factorization")

// CachedLU is the factorization-reuse cache behind the simulator's
// modified-Newton fast path. It keeps one LU factorization alive across
// Newton iterations and timesteps; Ensure refactors only when the caller
// forces it or when the key — the stamp configuration the factorization was
// built under (integration method/coefficients, gmin homotopy rung, …) —
// changes. Solving against a stale factorization is the modified-Newton
// trade: cheaper iterations that still contract to the same solution as
// long as the cached Jacobian stays close enough, which the caller's
// ReusePolicy watches over.
type CachedLU[K comparable] struct {
	lu    *LU
	key   K
	valid bool

	// Refactors and Reuses count Ensure outcomes (true factorizations vs
	// cache hits) since construction; diagnostic only. SparseRefactors
	// counts the subset of Refactors served by the frozen-pattern sparse
	// path.
	Refactors, Reuses, SparseRefactors int64

	// Frozen-pattern sparse refactorization (see SetPattern). The first
	// refactor after a pattern is set runs dense and seeds the elimination
	// order from its pivoting; later refactors reuse that order through
	// SparseLU until a pivot drifts, which drops the symbolic state and
	// reseeds from the next dense factorization.
	patRowPtr []int32
	patCols   []int32
	sym       *SparseSymbolic
	slu       *SparseLU
	sparse    bool // current valid factorization lives in slu
	spFails   int
}

// maxSparseFailures bounds reseed attempts: after this many pivot-drift
// fallbacks the cache stays dense until the pattern is set or reset again,
// so pathological matrices don't pay a failed sparse pass per refactor.
const maxSparseFailures = 3

// Ensure makes the cache hold a usable factorization for the matrix a,
// refactoring when forced, when the key differs from the cached one, or
// when no valid factorization exists yet. It reports whether a true
// factorization happened. On error the cache is invalidated and the next
// Ensure refactors unconditionally.
func (c *CachedLU[K]) Ensure(a *Matrix, key K, force bool) (refactored bool, err error) {
	if c.valid && !force && key == c.key {
		c.Reuses++
		return false, nil
	}
	if c.patRowPtr != nil && c.spFails < maxSparseFailures && c.sym != nil {
		if err = c.slu.Refactor(a); err == nil {
			c.sparse = true
			c.valid = true
			c.key = key
			c.Refactors++
			c.SparseRefactors++
			return true, nil
		}
		// Pivot drift (or out-of-pattern garbage): drop the frozen order
		// and reseed from the dense factorization below.
		c.spFails++
		c.sym = nil
		c.slu = nil
	}
	c.sparse = false
	if c.lu == nil {
		c.lu, err = NewLU(a)
	} else {
		err = c.lu.Refactor(a)
	}
	if err != nil {
		c.valid = false
		return false, err
	}
	if c.patRowPtr != nil && c.spFails < maxSparseFailures && c.sym == nil {
		// Seed the sparse elimination order from the pivoting the dense
		// factorization just chose. A failed symbolic build (malformed
		// pattern) counts like pivot drift: dense keeps working.
		if sym, serr := NewSparseSymbolic(c.lu.n, c.patRowPtr, c.patCols, c.lu.piv); serr == nil {
			c.sym = sym
			c.slu = NewSparseLU(sym)
		} else {
			c.spFails = maxSparseFailures
		}
	}
	c.valid = true
	c.key = key
	c.Refactors++
	return true, nil
}

// SetPattern arms the frozen-pattern sparse refactorization for an n×n
// matrix whose nonzeros all lie inside the CSR pattern (rowPtr, cols). The
// slices are copied. Setting a pattern identical to the current one is a
// no-op that keeps the seeded elimination order; a different pattern (or
// ClearPattern) drops it.
//
// Callers must only arm patterns for matrix families that share the
// pattern across refactors — in this codebase, the transient-stamp
// configurations of one circuit — and must ClearPattern before solving a
// differently-structured system (e.g. DC operating point with homotopy).
func (c *CachedLU[K]) SetPattern(n int, rowPtr, cols []int32) {
	if len(rowPtr) == n+1 && int32SlicesEqual(c.patRowPtr, rowPtr) && int32SlicesEqual(c.patCols, cols) {
		return
	}
	c.patRowPtr = append(c.patRowPtr[:0], rowPtr...)
	c.patCols = append(c.patCols[:0], cols...)
	c.resetSparse()
}

// ClearPattern disarms the sparse path and drops its seeded state. The
// cached dense factorization, if any, survives only if it is dense.
func (c *CachedLU[K]) ClearPattern() {
	c.patRowPtr = nil
	c.patCols = nil
	c.resetSparse()
}

func (c *CachedLU[K]) resetSparse() {
	c.sym = nil
	c.slu = nil
	c.spFails = 0
	if c.sparse {
		c.sparse = false
		c.valid = false
	}
}

func int32SlicesEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// Invalidate drops the cached factorization (the storage is kept); the
// next Ensure refactors regardless of key.
func (c *CachedLU[K]) Invalidate() { c.valid = false }

// Sparse reports whether the current valid factorization came from the
// frozen-pattern sparse path (diagnostic only).
func (c *CachedLU[K]) Sparse() bool { return c.valid && c.sparse }

// SolveInto solves against the cached factorization (see LU.SolveInto).
func (c *CachedLU[K]) SolveInto(dst, b []float64) error {
	if !c.valid {
		return ErrNoFactorization
	}
	if c.sparse {
		return c.slu.SolveInto(dst, b)
	}
	return c.lu.SolveInto(dst, b)
}

// ReusePolicy holds the modified-Newton heuristics that decide when a
// stale factorization must be replaced by a true refactor, and when a
// converged iterate computed against one may be accepted without a
// fresh-Jacobian polish iteration.
type ReusePolicy struct {
	// StallRatio: a non-refactored iteration whose step shrank by less
	// than this factor versus the previous one is stalling — the stale
	// Jacobian has stopped contracting and must be refreshed.
	StallRatio float64
	// MoveLimit is the cumulative iterate motion (max-norm over node
	// voltages, summed over accepted updates) beyond which the cached
	// Jacobian is considered out of date regardless of convergence
	// behavior.
	MoveLimit float64
	// DeepFactor scales the convergence tolerance down to the "deep"
	// tolerance: a stale-Jacobian iterate within tol·DeepFactor of its
	// fixed point is accepted outright, because the remaining modified-
	// Newton bias is far below anything downstream can observe.
	DeepFactor float64
	// ContractionCap bounds the estimated contraction rate used to
	// extrapolate the remaining error; estimates at or above the cap are
	// not trusted.
	ContractionCap float64
}

// DefaultReusePolicy returns the tuning the spice engine ships with.
func DefaultReusePolicy() ReusePolicy {
	return ReusePolicy{StallRatio: 0.5, MoveLimit: 0.1, DeepFactor: 1e-3, ContractionCap: 0.9}
}

// Stalled reports whether a not-yet-converged iteration (step maxStep,
// previous step prevStep) is contracting too slowly under the stale
// Jacobian. The first iteration of a solve (prevStep = +Inf) never stalls.
func (p ReusePolicy) Stalled(maxStep, prevStep float64) bool {
	return maxStep > p.StallRatio*prevStep
}

// DeepConverged reports whether an iterate that met the ordinary
// convergence test against a stale Jacobian is certified accurate enough
// to accept without a fresh-Jacobian polish: either the step is already
// below the deep tolerance, or the observed contraction rate ρ bounds the
// remaining error ρ·maxStep/(1−ρ) below it.
func (p ReusePolicy) DeepConverged(maxStep, prevStep, tol float64) bool {
	deep := tol * p.DeepFactor
	if maxStep < deep {
		return true
	}
	if prevStep <= 0 || math.IsInf(prevStep, 0) {
		return false
	}
	rho := maxStep / prevStep
	if rho >= p.ContractionCap {
		return false
	}
	return rho*maxStep/(1-rho) < deep
}

// CarriedConverged reports whether an iterate that met the ordinary
// convergence test on the *first* iteration of a solve — where no in-solve
// contraction estimate exists — is certified by the contraction rate rho
// observed on earlier iterations against the same factorization. Staleness
// is a property of the factorization, not of the solve: consecutive solves
// against one factorization contract at nearly the same rate (and MoveLimit
// bounds how far the iterate can drift before a refresh), so the carried
// rate is a sound stand-in for the in-solve estimate DeepConverged uses.
func (p ReusePolicy) CarriedConverged(maxStep, rho, tol float64) bool {
	if !(rho > 0) || rho >= p.ContractionCap {
		return false // unknown (NaN), non-contracting, or untrusted estimate
	}
	return rho*maxStep/(1-rho) < tol*p.DeepFactor
}
