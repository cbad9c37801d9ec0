package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := NewTable("Name", "Value")
	tbl.AddRow("alpha", "1")
	tbl.AddRow("bb", "22")
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines: %q", out)
	}
	if !strings.HasPrefix(lines[0], "Name") {
		t.Errorf("header: %q", lines[0])
	}
	if !strings.Contains(lines[2], "alpha") || !strings.Contains(lines[3], "bb") {
		t.Errorf("rows: %q", out)
	}
	// Columns align: "Value" starts at the same offset in every line.
	idx := strings.Index(lines[0], "Value")
	if !strings.HasPrefix(lines[2][idx:], "1") || !strings.HasPrefix(lines[3][idx:], "22") {
		t.Errorf("misaligned columns:\n%s", out)
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tbl := NewTable("A", "B", "C")
	tbl.AddRow("x")
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "x") {
		t.Error("row lost")
	}
}

func TestFormatters(t *testing.T) {
	if Ps(1.5e-12) != "1.5" {
		t.Errorf("Ps: %s", Ps(1.5e-12))
	}
	if Ns(2.5e-9) != "2.500" {
		t.Errorf("Ns: %s", Ns(2.5e-9))
	}
}

func TestWriteWaveCSV(t *testing.T) {
	var b strings.Builder
	err := WriteWaveCSV(&b, []string{"x", "y"},
		func(name string, t float64) float64 {
			if name == "x" {
				return t
			}
			return 2 * t
		}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 || lines[0] != "t,x,y" {
		t.Errorf("CSV:\n%s", b.String())
	}
	if !strings.HasPrefix(lines[2], "1.000000e+00,1.000000e+00,2.000000e+00") {
		t.Errorf("row: %q", lines[2])
	}
}
