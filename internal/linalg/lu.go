package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when factorization encounters a pivot that is
// (numerically) zero.
var ErrSingular = errors.New("linalg: matrix is singular")

// LU holds an in-place LU factorization with partial pivoting: P·A = L·U.
// The factorization reuses its internal storage across Refactor calls, which
// the transient simulator exploits when the Jacobian changes every Newton
// iteration.
type LU struct {
	n   int
	lu  *Matrix // combined L (unit lower) and U
	piv []int   // row permutation
}

// NewLU factors a (copied) square matrix. The input is not modified.
func NewLU(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: LU of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	f := &LU{n: a.Rows, lu: a.Clone(), piv: make([]int, a.Rows)}
	if err := f.factor(); err != nil {
		return nil, err
	}
	return f, nil
}

// Refactor re-factors the decomposition from a fresh matrix of the same
// size, reusing internal storage.
func (f *LU) Refactor(a *Matrix) error {
	if a.Rows != f.n || a.Cols != f.n {
		return fmt.Errorf("linalg: Refactor shape mismatch: have %d, got %dx%d", f.n, a.Rows, a.Cols)
	}
	f.lu.CopyFrom(a)
	return f.factor()
}

func (f *LU) factor() error {
	n := f.n
	lu := f.lu.Data
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivoting: find the largest magnitude in column k at or
		// below the diagonal.
		p := k
		max := math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu[i*n+k]); a > max {
				max = a
				p = i
			}
		}
		if max == 0 || math.IsNaN(max) {
			return fmt.Errorf("%w (pivot column %d)", ErrSingular, k)
		}
		if p != k {
			rk := lu[k*n : (k+1)*n]
			rp := lu[p*n : (p+1)*n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
		}
		pivot := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / pivot
			lu[i*n+k] = m
			if m == 0 {
				continue
			}
			ri := lu[i*n+k+1 : i*n+n]
			rk := lu[k*n+k+1 : k*n+n]
			for j := range rk {
				ri[j] -= m * rk[j]
			}
		}
	}
	return nil
}

// Solve solves A·x = b, writing the solution into a new slice. Hot paths
// should call SolveInto with a reused destination; this wrapper exists for
// one-off solves where the allocation is irrelevant.
//
// A dedicated small-n (3×3) solve was considered and rejected: profiles of
// the Table 1 sweeps show solve time concentrated in the 30–60-unknown
// testbench systems, where the general forward/back substitution is already
// the right shape — the circuits small enough for a closed-form solve
// contribute no measurable share.
func (f *LU) Solve(b []float64) ([]float64, error) {
	x := make([]float64, len(b))
	if err := f.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A·x = b into dst (dst and b may not alias).
func (f *LU) SolveInto(dst, b []float64) error {
	n := f.n
	if len(b) != n || len(dst) != n {
		return fmt.Errorf("linalg: SolveInto length mismatch: n=%d len(b)=%d len(dst)=%d", n, len(b), len(dst))
	}
	lu := f.lu.Data
	// Apply permutation: dst = P·b.
	for i := 0; i < n; i++ {
		dst[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		s := dst[i]
		row := lu[i*n : i*n+i]
		for j, m := range row {
			s -= m * dst[j]
		}
		dst[i] = s
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		s := dst[i]
		row := lu[i*n+i+1 : (i+1)*n]
		for j, u := range row {
			s -= u * dst[i+1+j]
		}
		dst[i] = s / lu[i*n+i]
	}
	return nil
}

// SolveDense is a convenience one-shot solve of A·x = b. The linalg and
// circuit tests check solutions with it; production code keeps its
// factorization (LU, CachedLU) across solves.
func SolveDense(a *Matrix, b []float64) ([]float64, error) {
	f, err := NewLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
