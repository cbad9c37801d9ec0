// Package liberty implements the subset of the Liberty (.lib) cell-library
// format that conventional STA delay calculation needs: two-dimensional
// NLDM lookup tables over (input transition, output load) for cell delay
// and output transition, grouped into timing arcs and cells, with a writer
// and parser for a Liberty-flavoured text representation.
//
// The paper stresses that SGDP "is compatible with the current level of
// gate characterization in conventional ASIC cell libraries"; this package
// is that conventional level, and internal/sta consumes it.
package liberty

import (
	"errors"
	"fmt"
	"sort"
)

// Table2D is an NLDM lookup table: Values[i][j] corresponds to
// (Index1[i], Index2[j]). Index1 is input transition time (s), Index2 is
// output load (F). Lookup is bilinear inside the grid and linearly
// extrapolated from the boundary cells outside it (the standard Liberty
// semantics).
type Table2D struct {
	Index1 []float64   // input transition times, strictly increasing
	Index2 []float64   // output loads, strictly increasing
	Values [][]float64 // [len(Index1)][len(Index2)]
}

// ErrBadTable is returned for malformed table shapes.
var ErrBadTable = errors.New("liberty: malformed table")

// Validate checks shape and monotonicity.
func (t *Table2D) Validate() error {
	if len(t.Index1) == 0 || len(t.Index2) == 0 {
		return fmt.Errorf("%w: empty index", ErrBadTable)
	}
	if len(t.Values) != len(t.Index1) {
		return fmt.Errorf("%w: %d rows for %d index1 entries", ErrBadTable, len(t.Values), len(t.Index1))
	}
	for i, row := range t.Values {
		if len(row) != len(t.Index2) {
			return fmt.Errorf("%w: row %d has %d cols, want %d", ErrBadTable, i, len(row), len(t.Index2))
		}
	}
	for i := 0; i+1 < len(t.Index1); i++ {
		if t.Index1[i+1] <= t.Index1[i] {
			return fmt.Errorf("%w: index_1 not increasing at %d", ErrBadTable, i)
		}
	}
	for j := 0; j+1 < len(t.Index2); j++ {
		if t.Index2[j+1] <= t.Index2[j] {
			return fmt.Errorf("%w: index_2 not increasing at %d", ErrBadTable, j)
		}
	}
	return nil
}

// segment returns the interpolation cell index and parameter for x in axis,
// extrapolating from the boundary cells.
func segment(axis []float64, x float64) (i int, u float64) {
	n := len(axis)
	if n == 1 {
		return 0, 0
	}
	i = sort.SearchFloat64s(axis, x)
	switch {
	case i <= 0:
		i = 0
	case i >= n:
		i = n - 2
	default:
		i--
	}
	if i > n-2 {
		i = n - 2
	}
	u = (x - axis[i]) / (axis[i+1] - axis[i])
	return i, u
}

// At performs bilinear interpolation (with boundary-cell extrapolation) at
// input transition trans and load cap load.
func (t *Table2D) At(trans, load float64) float64 {
	i, u := segment(t.Index1, trans)
	j, v := segment(t.Index2, load)
	if len(t.Index1) == 1 && len(t.Index2) == 1 {
		return t.Values[0][0]
	}
	if len(t.Index1) == 1 {
		return t.Values[0][j]*(1-v) + t.Values[0][j+1]*v
	}
	if len(t.Index2) == 1 {
		return t.Values[i][0]*(1-u) + t.Values[i+1][0]*u
	}
	a := t.Values[i][j]*(1-v) + t.Values[i][j+1]*v
	b := t.Values[i+1][j]*(1-v) + t.Values[i+1][j+1]*v
	return a*(1-u) + b*u
}
