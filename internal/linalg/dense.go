// Package linalg provides the small dense linear-algebra kernel used by the
// circuit simulator and the fitting routines: dense matrices, LU
// factorization with partial pivoting, and vector helpers.
//
// Circuit matrices in this project are modest (tens to a few hundred nodes),
// so a cache-friendly dense row-major representation beats a sparse one in
// both simplicity and speed.
package linalg

import (
	"fmt"
	"strings"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, Data[r*Cols+c]
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Add accumulates v into element (r, c). This is the natural operation for
// MNA stamping, where several devices contribute to one entry.
func (m *Matrix) Add(r, c int, v float64) { m.Data[r*m.Cols+c] += v }

// Zero resets every element to zero, preserving the allocation.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom overwrites m with src. The shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("linalg: CopyFrom shape mismatch")
	}
	copy(m.Data, src.Data)
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "% .6g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
