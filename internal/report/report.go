// Package report renders experiment results as fixed-width text tables and
// CSV, shared by the command-line tools and EXPERIMENTS.md generation.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// Render writes the aligned table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		return strings.TrimRight(b.String(), " ")
	}
	var b strings.Builder
	b.WriteString(line(t.header))
	b.WriteByte('\n')
	total := len(widths)*2 - 2
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		b.WriteString(line(row))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Ps formats a duration in seconds as picoseconds with 1 decimal.
func Ps(seconds float64) string { return fmt.Sprintf("%.1f", seconds*1e12) }

// Ns formats a duration in seconds as nanoseconds with 3 decimals.
func Ns(seconds float64) string { return fmt.Sprintf("%.3f", seconds*1e9) }

// WriteWaveCSV dumps aligned (t, v...) series sampled on the first series'
// time grid.
func WriteWaveCSV(w io.Writer, names []string, at func(name string, t float64) float64, times []float64) error {
	var b strings.Builder
	b.WriteString("t")
	for _, n := range names {
		b.WriteByte(',')
		b.WriteString(n)
	}
	b.WriteByte('\n')
	for _, t := range times {
		fmt.Fprintf(&b, "%.6e", t)
		for _, n := range names {
			fmt.Fprintf(&b, ",%.6e", at(n, t))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
