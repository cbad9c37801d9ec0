package netlist

import (
	"math"
	"strings"
	"testing"
)

const sample = `
# two-stage path with an annotated coupling
design demo
input  a slew=150ps at=10ps
input  b
output y
gate   u1 NAND2X1 A=a B=b Y=n1
gate   u2 INVX4   A=n1 Y=y
netcap n1 4fF
couple n1 agg 60fF
`

func TestParseSample(t *testing.T) {
	d, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if d.Name != "demo" {
		t.Errorf("name %q", d.Name)
	}
	if len(d.Inputs) != 2 || len(d.Outputs) != 1 || len(d.Gates) != 2 {
		t.Fatalf("counts: %d inputs %d outputs %d gates",
			len(d.Inputs), len(d.Outputs), len(d.Gates))
	}
	a, b := d.Inputs[0], d.Inputs[1]
	if a.Name != "a" || b.Name != "b" {
		t.Fatalf("inputs %q, %q, want a, b", a.Name, b.Name)
	}
	if math.Abs(a.Slew-150e-12) > 1e-18 || math.Abs(a.Arrival-10e-12) > 1e-18 {
		t.Errorf("input a: %+v", a)
	}
	if b.Slew != 50e-12 { // default
		t.Errorf("input b default slew: %g", b.Slew)
	}
	if d.Gates[0].Pins["A"] != "a" || d.Gates[0].Pins["Y"] != "n1" {
		t.Errorf("gate pins: %v", d.Gates[0].Pins)
	}
	if math.Abs(d.NetCaps["n1"]-4e-15) > 1e-20 {
		t.Errorf("netcap: %g", d.NetCaps["n1"])
	}
	if len(d.Couplings) != 1 || math.Abs(d.Couplings[0].Cap-60e-15) > 1e-20 {
		t.Errorf("couplings: %+v", d.Couplings)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown statement":  "frob x y",
		"bad attribute":      "input a slew:150ps",
		"bad unit":           "input a slew=150qs",
		"double pin":         "gate u1 INVX1 A=a A=b Y=y",
		"double driver":      "input n1\ngate u1 INVX1 A=a Y=n1",
		"duplicate gate":     "input a\ngate u1 INVX1 A=a Y=n1\ngate u1 INVX1 A=n1 Y=n2",
		"unknown output net": "input a\ngate g INVX1 A=a Y=n1\noutput zzz",
	}
	for name, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted\n%s", name, src)
		}
	}
}

func TestParseQuantity(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"150ps", 150e-12}, {"1.5ns", 1.5e-9}, {"2s", 2}, {"3fs", 3e-15},
		{"4fF", 4e-15}, {"0.1pF", 0.1e-12}, {"1e-12", 1e-12}, {"7", 7},
	}
	for _, c := range cases {
		got, err := ParseQuantity(c.in)
		if err != nil {
			t.Errorf("ParseQuantity(%q): %v", c.in, err)
			continue
		}
		if math.Abs(got-c.want) > 1e-12*math.Abs(c.want)+1e-30 {
			t.Errorf("ParseQuantity(%q) = %g, want %g", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "ps", "12xx", "--3ns"} {
		if _, err := ParseQuantity(bad); err == nil {
			t.Errorf("ParseQuantity(%q) accepted", bad)
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	src := "\n# full comment\ninput a # trailing comment\n\noutput a\n"
	d, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(d.Inputs) != 1 || d.Inputs[0].Name != "a" {
		t.Errorf("inputs: %+v", d.Inputs)
	}
}
