package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrPivotDrift is returned by SparseLU.Refactor when a pivot under the
// frozen elimination order has decayed below the stability guard. The caller
// falls back to a dense partial-pivoting factorization and reseeds.
var ErrPivotDrift = errors.New("linalg: sparse pivot drifted below stability guard")

// sparsePivotTau is the relative pivot-stability threshold: a diagonal
// smaller than tau times the row's U-part magnitude means the elimination
// order chosen at seed time is no longer numerically safe.
const sparsePivotTau = 1e-3

// SparseSymbolic is the frozen symbolic factorization behind SparseLU: the
// fill-in pattern of L+U for a fixed sparsity pattern under a fixed row
// elimination order (no numerical pivoting). The transient fast path seeds
// the order from one dense partial-pivoting factorization — MNA matrices
// change values every Newton iteration but keep their pattern, so the same
// order stays stable across thousands of refactors, each of which then costs
// O(nnz(L+U)) instead of O(n³).
//
// A SparseSymbolic is immutable once built.
type SparseSymbolic struct {
	n    int
	perm []int // perm[k] = original row eliminated at step k

	// CSR pattern of L+U in elimination (permuted-row) order. Column
	// indices are original (columns are not permuted, matching dense LU
	// with row partial pivoting) and ascending within a row; column k is
	// always present in row k (the pivot).
	rowPtr  []int32
	cols    []int32
	diagPos []int32 // index into cols/vals of row k's diagonal entry

	// Scatter map from the dense source matrix into each permuted row:
	// entry p of row k loads a.Data[srcIdx[p]] into work[srcCol[p]].
	srcPtr []int32
	srcCol []int32
	srcIdx []int32
}

// NewSparseSymbolic computes the fill-in pattern for the matrix sparsity
// pattern given as CSR (rowPtr/cols over original row indices, n+1 and nnz
// long) eliminated in the row order perm (typically the piv order of a
// dense LU of a representative matrix).
func NewSparseSymbolic(n int, rowPtr, cols []int32, perm []int) (*SparseSymbolic, error) {
	if len(rowPtr) != n+1 {
		return nil, fmt.Errorf("linalg: sparse symbolic rowPtr length %d, want %d", len(rowPtr), n+1)
	}
	if len(perm) != n {
		return nil, fmt.Errorf("linalg: sparse symbolic perm length %d, want %d", len(perm), n)
	}
	s := &SparseSymbolic{
		n:       n,
		perm:    append([]int(nil), perm...),
		rowPtr:  make([]int32, 1, n+1),
		diagPos: make([]int32, n),
		srcPtr:  make([]int32, 1, n+1),
	}
	mark := make([]bool, n)
	for k := 0; k < n; k++ {
		orig := perm[k]
		if orig < 0 || orig >= n {
			return nil, fmt.Errorf("linalg: sparse symbolic perm[%d]=%d out of range", k, orig)
		}
		// Source entries: the original pattern of the row eliminated here.
		for p := rowPtr[orig]; p < rowPtr[orig+1]; p++ {
			c := cols[p]
			mark[c] = true
			s.srcCol = append(s.srcCol, c)
			s.srcIdx = append(s.srcIdx, int32(orig)*int32(n)+c)
		}
		s.srcPtr = append(s.srcPtr, int32(len(s.srcCol)))
		// The pivot position must exist even if only fill produces it.
		mark[k] = true
		// Symbolic elimination: every L-part column j contributes the
		// U-part pattern of previously factored row j. Ascending scan is
		// sound because row j only adds columns > j.
		for j := 0; j < k; j++ {
			if !mark[j] {
				continue
			}
			for q := s.diagPos[j] + 1; q < s.rowPtr[j+1]; q++ {
				mark[s.cols[q]] = true
			}
		}
		for c := 0; c < n; c++ {
			if !mark[c] {
				continue
			}
			if c == k {
				s.diagPos[k] = int32(len(s.cols))
			}
			s.cols = append(s.cols, int32(c))
			mark[c] = false
		}
		s.rowPtr = append(s.rowPtr, int32(len(s.cols)))
	}
	return s, nil
}

// NNZ returns the number of stored entries in L+U (fill included).
func (s *SparseSymbolic) NNZ() int { return len(s.cols) }

// SparseLU is a numeric LU factorization over a frozen SparseSymbolic
// pattern: left-looking refactorization with no pivot search, guarded by a
// relative pivot-magnitude check that reports ErrPivotDrift instead of
// silently losing accuracy.
type SparseLU struct {
	sym  *SparseSymbolic
	vals []float64 // aligned with sym.cols
	work []float64 // dense scratch row, length n
}

// NewSparseLU returns an unfactored SparseLU over sym.
func NewSparseLU(sym *SparseSymbolic) *SparseLU {
	return &SparseLU{sym: sym, vals: make([]float64, sym.NNZ()), work: make([]float64, sym.n)}
}

// Refactor computes the numeric factorization of a (whose nonzeros must lie
// inside the symbolic pattern; entries outside it are ignored). On
// ErrPivotDrift the stored factors are unusable and the caller must reseed.
func (s *SparseLU) Refactor(a *Matrix) error {
	sym := s.sym
	n := sym.n
	if a.Rows != n || a.Cols != n {
		return fmt.Errorf("linalg: sparse Refactor shape mismatch: have %d, got %dx%d", n, a.Rows, a.Cols)
	}
	ad := a.Data
	w := s.work
	for k := 0; k < n; k++ {
		// Scatter: clear the row's pattern positions, then load the source
		// values of the row eliminated at this step.
		for p := sym.rowPtr[k]; p < sym.rowPtr[k+1]; p++ {
			w[sym.cols[p]] = 0
		}
		for p := sym.srcPtr[k]; p < sym.srcPtr[k+1]; p++ {
			w[sym.srcCol[p]] = ad[sym.srcIdx[p]]
		}
		// Left-looking elimination against previously factored rows. The
		// columns of a row ascend and the pivot column k sits at diagPos[k],
		// so the L part is exactly [rowPtr[k], diagPos[k]).
		for _, j32 := range sym.cols[sym.rowPtr[k]:sym.diagPos[k]] {
			j := int(j32)
			if w[j] == 0 {
				continue
			}
			m := w[j] / s.vals[sym.diagPos[j]]
			w[j] = m
			uc := sym.cols[sym.diagPos[j]+1 : sym.rowPtr[j+1]]
			uv := s.vals[sym.diagPos[j]+1 : sym.rowPtr[j+1]]
			for q, c := range uc {
				w[c] -= m * uv[q]
			}
		}
		// Gather and guard: the frozen order is kept only while the pivot
		// dominates its row's U part well enough for backward stability.
		rowMax := 0.0
		for p := sym.rowPtr[k]; p < sym.rowPtr[k+1]; p++ {
			v := w[sym.cols[p]]
			s.vals[p] = v
			if int(sym.cols[p]) >= k {
				if av := math.Abs(v); av > rowMax {
					rowMax = av
				}
			}
		}
		d := math.Abs(s.vals[sym.diagPos[k]])
		if !(d >= sparsePivotTau*rowMax) || d == 0 {
			return fmt.Errorf("%w (row %d, |pivot|=%g, rowmax=%g)", ErrPivotDrift, k, d, rowMax)
		}
	}
	return nil
}

// SolveInto solves A·x = b into dst using the sparse factors
// (dst and b may not alias).
func (s *SparseLU) SolveInto(dst, b []float64) error {
	sym := s.sym
	n := sym.n
	if len(b) != n || len(dst) != n {
		return fmt.Errorf("linalg: sparse SolveInto length mismatch: n=%d len(b)=%d len(dst)=%d", n, len(b), len(dst))
	}
	// dst = P·b, then forward substitution with unit lower triangle. L's
	// column index equals the elimination step of the pivot it refers to,
	// so y is indexed by elimination position.
	for k := 0; k < n; k++ {
		dst[k] = b[sym.perm[k]]
	}
	for k := 1; k < n; k++ {
		sum := dst[k]
		lc := sym.cols[sym.rowPtr[k]:sym.diagPos[k]]
		lv := s.vals[sym.rowPtr[k]:sym.diagPos[k]]
		for p, j := range lc {
			sum -= lv[p] * dst[j]
		}
		dst[k] = sum
	}
	// Back substitution: solution indices are original column indices.
	for k := n - 1; k >= 0; k-- {
		dp := sym.diagPos[k]
		uc := sym.cols[dp+1 : sym.rowPtr[k+1]]
		uv := s.vals[dp+1 : sym.rowPtr[k+1]]
		sum := dst[k]
		for p, c := range uc {
			sum -= uv[p] * dst[c]
		}
		dst[k] = sum / s.vals[dp]
	}
	return nil
}
