package linalg

import "errors"

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
// long as the cached Jacobian stays close enough; when to force a refactor
// is the caller's decision.
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

	// gen changes with every state change, so Snapshot can tell whether
	// the state still equals its previous snapshot.
	gen uint64
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
	c.gen++
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
	c.gen++
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
func (c *CachedLU[K]) Invalidate() {
	c.gen++
	c.valid = false
}

// CachedLUState is a read-only copy of a CachedLU's state — key, pattern,
// elimination order and the current factors — taken by Snapshot and put
// back by Restore.
type CachedLUState[K comparable] struct {
	gen                uint64
	key                K
	valid, sparse      bool
	spFails            int
	patRowPtr, patCols []int32
	sym                *SparseSymbolic // immutable, so shared
	vals               []float64       // sparse factors, when valid and sparse
	lu                 *LU             // dense factors, when valid and not sparse
}

// Snapshot returns a copy of the cache's state. prev, if non-nil, must be
// an earlier snapshot of this cache: when nothing changed since, prev
// itself is returned, so a run of snapshots holds one copy per
// factorization.
func (c *CachedLU[K]) Snapshot(prev *CachedLUState[K]) *CachedLUState[K] {
	if prev != nil && prev.gen == c.gen {
		return prev
	}
	st := &CachedLUState[K]{
		gen: c.gen, key: c.key, valid: c.valid, sparse: c.sparse,
		spFails: c.spFails, sym: c.sym,
	}
	switch {
	case c.patRowPtr == nil:
	case prev != nil && int32SlicesEqual(prev.patRowPtr, c.patRowPtr) && int32SlicesEqual(prev.patCols, c.patCols):
		st.patRowPtr, st.patCols = prev.patRowPtr, prev.patCols
	default:
		st.patRowPtr = append([]int32(nil), c.patRowPtr...)
		st.patCols = append([]int32(nil), c.patCols...)
	}
	if c.valid && c.sparse {
		st.vals = append([]float64(nil), c.slu.vals...)
	} else if c.valid {
		st.lu = &LU{n: c.lu.n, lu: c.lu.lu.Clone(), piv: append([]int(nil), c.lu.piv...)}
	}
	return st
}

// Restore puts a snapshot's state back, bit for bit: later Ensure and
// SolveInto calls behave exactly as they did on the cache the snapshot was
// taken from. The snapshot is not modified. The diagnostic counters are
// left as they are.
func (c *CachedLU[K]) Restore(st *CachedLUState[K]) {
	c.gen++
	c.key, c.valid, c.sparse, c.spFails = st.key, st.valid, st.sparse, st.spFails
	if st.patRowPtr == nil {
		c.patRowPtr, c.patCols = nil, nil
	} else {
		c.patRowPtr = append(c.patRowPtr[:0], st.patRowPtr...)
		c.patCols = append(c.patCols[:0], st.patCols...)
	}
	if c.sym = st.sym; st.sym == nil {
		c.slu = nil
	} else if c.slu == nil || c.slu.sym != st.sym {
		c.slu = NewSparseLU(st.sym)
	}
	if st.vals != nil {
		copy(c.slu.vals, st.vals)
	}
	if st.lu != nil {
		if c.lu == nil || c.lu.n != st.lu.n {
			c.lu = &LU{n: st.lu.n, lu: NewMatrix(st.lu.n, st.lu.n), piv: make([]int, st.lu.n)}
		}
		c.lu.lu.CopyFrom(st.lu.lu)
		copy(c.lu.piv, st.lu.piv)
	}
}

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
