// Package netlist parses the gate-level netlist format consumed by the STA
// engine. The format is line-oriented:
//
//	# comment
//	design  my_block
//	input   a slew=120ps at=0ps
//	input   b slew=80ps  at=50ps
//	output  y
//	gate    u1 NAND2X1 A=a B=b Y=n1
//	gate    u2 INVX4   A=n1 Y=y
//	netcap  n1 4fF
//	couple  n1 agg1 60fF
//
// Units accepted: s/ns/ps/fs for times, F/pF/fF for capacitances. `couple`
// lines declare a coupling capacitance between two nets; the STA engine
// treats them as extra load and as candidates for noise annotation.
package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Port is a primary input declaration.
type Port struct {
	Name    string
	Arrival float64 // arrival time at the input (s)
	Slew    float64 // 10–90% transition time (s)
}

// Gate is one cell instance; Pins maps cell pin names to net names.
type Gate struct {
	Name string
	Cell string
	Pins map[string]string
}

// Coupling is a declared coupling capacitor between two nets.
type Coupling struct {
	A, B string
	Cap  float64
}

// Design is a parsed netlist.
type Design struct {
	Name      string
	Inputs    []Port
	Outputs   []string
	Gates     []Gate
	NetCaps   map[string]float64
	NetRes    map[string]float64
	Couplings []Coupling
}

// Parse reads a netlist.
func Parse(r io.Reader) (*Design, error) {
	d := &Design{NetCaps: make(map[string]float64), NetRes: make(map[string]float64)}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if err := d.parseLine(fields); err != nil {
			return nil, fmt.Errorf("netlist: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *Design) parseLine(fields []string) error {
	switch fields[0] {
	case "design":
		if len(fields) != 2 {
			return fmt.Errorf("design needs a name")
		}
		d.Name = fields[1]
	case "input":
		if len(fields) < 2 {
			return fmt.Errorf("input needs a net name")
		}
		p := Port{Name: fields[1], Slew: 50e-12}
		for _, kv := range fields[2:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("bad attribute %q", kv)
			}
			val, err := ParseQuantity(v)
			if err != nil {
				return fmt.Errorf("attribute %s: %w", k, err)
			}
			switch k {
			case "slew":
				p.Slew = val
			case "at":
				p.Arrival = val
			default:
				return fmt.Errorf("unknown input attribute %q", k)
			}
		}
		d.Inputs = append(d.Inputs, p)
	case "output":
		if len(fields) != 2 {
			return fmt.Errorf("output needs a net name")
		}
		d.Outputs = append(d.Outputs, fields[1])
	case "gate":
		if len(fields) < 4 {
			return fmt.Errorf("gate needs: name cell PIN=net...")
		}
		g := Gate{Name: fields[1], Cell: fields[2], Pins: make(map[string]string)}
		for _, kv := range fields[3:] {
			pin, net, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("bad pin connection %q", kv)
			}
			if _, dup := g.Pins[pin]; dup {
				return fmt.Errorf("pin %s connected twice on %s", pin, g.Name)
			}
			g.Pins[pin] = net
		}
		d.Gates = append(d.Gates, g)
	case "netcap":
		if len(fields) != 3 {
			return fmt.Errorf("netcap needs: net value")
		}
		v, err := ParseQuantity(fields[2])
		if err != nil {
			return err
		}
		d.NetCaps[fields[1]] += v
	case "netres":
		if len(fields) != 3 {
			return fmt.Errorf("netres needs: net ohms")
		}
		v, err := ParseQuantity(fields[2])
		if err != nil {
			return err
		}
		if d.NetRes == nil {
			d.NetRes = make(map[string]float64)
		}
		d.NetRes[fields[1]] += v
	case "couple":
		if len(fields) != 4 {
			return fmt.Errorf("couple needs: netA netB value")
		}
		v, err := ParseQuantity(fields[3])
		if err != nil {
			return err
		}
		d.Couplings = append(d.Couplings, Coupling{A: fields[1], B: fields[2], Cap: v})
	default:
		return fmt.Errorf("unknown statement %q", fields[0])
	}
	return nil
}

// Validate performs structural checks: unique gate names, single driver per
// net, outputs exist.
func (d *Design) Validate() error {
	gateNames := make(map[string]bool)
	drivers := make(map[string]string)
	nets := make(map[string]bool)
	for _, p := range d.Inputs {
		if drivers[p.Name] != "" {
			return fmt.Errorf("netlist: input %s collides with another driver", p.Name)
		}
		drivers[p.Name] = "input:" + p.Name
		nets[p.Name] = true
	}
	for _, g := range d.Gates {
		if gateNames[g.Name] {
			return fmt.Errorf("netlist: duplicate gate name %q", g.Name)
		}
		gateNames[g.Name] = true
		for pin, net := range g.Pins {
			nets[net] = true
			if pin == "Y" { // output pin convention
				if prev := drivers[net]; prev != "" {
					return fmt.Errorf("netlist: net %s driven by both %s and %s", net, prev, g.Name)
				}
				drivers[net] = g.Name
			}
		}
	}
	for _, o := range d.Outputs {
		if !nets[o] {
			return fmt.Errorf("netlist: output %s is not a known net", o)
		}
	}
	return nil
}

// ParseQuantity parses "150ps", "4fF", "1.2e-12", "3ns" into SI units.
func ParseQuantity(s string) (float64, error) {
	unitScale := map[string]float64{
		"s": 1, "ns": 1e-9, "ps": 1e-12, "fs": 1e-15,
		"F": 1, "pF": 1e-12, "fF": 1e-15, "pf": 1e-12, "ff": 1e-15,
	}
	i := len(s)
	for i > 0 {
		c := s[i-1]
		if (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == '-' || c == '+' {
			break
		}
		i--
	}
	num, suffix := s[:i], s[i:]
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("bad quantity %q", s)
	}
	if suffix == "" {
		return v, nil
	}
	scale, ok := unitScale[suffix]
	if !ok {
		return 0, fmt.Errorf("unknown unit %q in %q", suffix, s)
	}
	return v * scale, nil
}
