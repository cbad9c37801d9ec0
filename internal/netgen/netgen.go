// Package netgen generates seeded synthetic netlists — parameterized
// inverter/NAND meshes with SPEF-style wire parasitics, coupling caps and
// optional noise-annotation sites — scaling from 10³ to ~10⁶ gates. It is
// the workload generator behind the full-chip STA benchmarks: every design
// is a deterministic function of its Config (same seed, same design, bit
// for bit), emits directly into netlist.Design, and round-trips through
// netlist.Write so cmd/noisesta can consume the same circuits from disk.
//
// The mesh shape is a levelized grid: Width primary inputs feed Depth
// ranks of gates, each gate drawing its fanins uniformly from the previous
// rank — wide enough for graph-level parallelism, deep enough for long
// critical paths, and single-driver by construction.
package netgen

import (
	"fmt"
	"math"
	"math/rand"

	"noisewave/internal/liberty"
	"noisewave/internal/netlist"
	"noisewave/internal/wave"
)

// Config parameterizes one synthetic mesh. The zero value is not valid;
// start from DefaultConfig and override.
type Config struct {
	// Name is the design name ("mesh" if empty).
	Name string
	// Gates is the target gate count (the actual count is Width·Depth,
	// rounded to fill whole ranks).
	Gates int
	// Width is the number of gates per rank; 0 picks ~sqrt(Gates),
	// clamped to [8, 4096].
	Width int
	// Seed drives every random draw. Two configs with equal fields
	// produce identical designs.
	Seed int64
	// NandFrac is the fraction of two-input NAND2X1 gates (the rest are
	// inverters; default 0.4).
	NandFrac float64
	// InvX4Frac is the fraction of inverters upsized to INVX4
	// (default 0.25).
	InvX4Frac float64
	// WireCap is the mean per-net wire capacitance in farads, jittered
	// ±50% per net (default 3 fF). 0 disables netcap annotations.
	WireCap float64
	// WireRes is the mean per-net wire resistance in ohms, jittered ±50%
	// (default 150 Ω); feeds the ElmoreWire model.
	WireRes float64
	// CoupleFrac is the per-net probability of a coupling cap to its rank
	// neighbor (default 0.05); CoupleCap its mean value (default 2 fF).
	CoupleFrac float64
	CoupleCap  float64
	// InputSlew is the mean primary-input transition (default 100 ps),
	// jittered ±25%; input arrivals spread uniformly in [0, InputSpread]
	// (default 50 ps).
	InputSlew   float64
	InputSpread float64
}

// DefaultConfig returns the standard mesh of a given size: 40% NAND2,
// jittered 3 fF / 150 Ω wire parasitics, 5% coupled nets, 100 ps inputs.
func DefaultConfig(gates int) Config {
	return Config{
		Gates:       gates,
		NandFrac:    0.4,
		InvX4Frac:   0.25,
		WireCap:     3e-15,
		WireRes:     150,
		CoupleFrac:  0.05,
		CoupleCap:   2e-15,
		InputSlew:   100e-12,
		InputSpread: 50e-12,
	}
}

// normalized fills defaults and validates.
func (c Config) normalized() (Config, error) {
	if c.Gates < 1 {
		return c, fmt.Errorf("netgen: Gates = %d, want >= 1", c.Gates)
	}
	if c.Name == "" {
		c.Name = "mesh"
	}
	if c.Width == 0 {
		c.Width = int(math.Round(math.Sqrt(float64(c.Gates))))
	}
	if c.Width < 8 {
		c.Width = 8
	}
	if c.Width > 4096 {
		c.Width = 4096
	}
	if c.Width > c.Gates {
		c.Width = c.Gates
	}
	if c.NandFrac < 0 || c.NandFrac > 1 {
		return c, fmt.Errorf("netgen: NandFrac = %g, want [0,1]", c.NandFrac)
	}
	if c.InputSlew == 0 {
		c.InputSlew = 100e-12
	}
	return c, nil
}

// jitter returns m scaled by a uniform factor in [1-spread, 1+spread].
func jitter(rng *rand.Rand, m, spread float64) float64 {
	return m * (1 + spread*(2*rng.Float64()-1))
}

// Generate builds the mesh. The result validates under netlist.Validate
// (unique gate names, single driver per net) and times under sta at any
// worker count.
func Generate(cfg Config) (*netlist.Design, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	depth := (cfg.Gates + cfg.Width - 1) / cfg.Width
	d := &netlist.Design{
		Name:    cfg.Name,
		NetCaps: make(map[string]float64, cfg.Width*depth),
		NetRes:  make(map[string]float64, cfg.Width*depth),
	}

	// Rank 0: primary inputs.
	prev := make([]string, cfg.Width)
	for i := range prev {
		name := fmt.Sprintf("in%d", i)
		prev[i] = name
		d.Inputs = append(d.Inputs, netlist.Port{
			Name:    name,
			Arrival: cfg.InputSpread * rng.Float64(),
			Slew:    jitter(rng, cfg.InputSlew, 0.25),
		})
	}

	gid := 0
	cur := make([]string, cfg.Width)
	for l := 1; l <= depth; l++ {
		width := cfg.Width
		if rem := cfg.Gates - (l-1)*cfg.Width; rem < width {
			width = rem
		}
		cur = cur[:width]
		for i := 0; i < width; i++ {
			gid++
			out := fmt.Sprintf("l%d_n%d", l, i)
			cur[i] = out
			g := netlist.Gate{Name: fmt.Sprintf("g%d", gid), Pins: map[string]string{"Y": out}}
			if rng.Float64() < cfg.NandFrac {
				g.Cell = "NAND2X1"
				g.Pins["A"] = prev[rng.Intn(len(prev))]
				g.Pins["B"] = prev[rng.Intn(len(prev))]
			} else {
				g.Cell = "INVX1"
				if rng.Float64() < cfg.InvX4Frac {
					g.Cell = "INVX4"
				}
				g.Pins["A"] = prev[rng.Intn(len(prev))]
			}
			d.Gates = append(d.Gates, g)
			if cfg.WireCap > 0 {
				d.NetCaps[out] = jitter(rng, cfg.WireCap, 0.5)
			}
			if cfg.WireRes > 0 {
				d.NetRes[out] = jitter(rng, cfg.WireRes, 0.5)
			}
			if i > 0 && cfg.CoupleFrac > 0 && rng.Float64() < cfg.CoupleFrac {
				d.Couplings = append(d.Couplings, netlist.Coupling{
					A: cur[i-1], B: out, Cap: jitter(rng, cfg.CoupleCap, 0.5),
				})
			}
		}
		prev = append(prev[:0], cur...)
	}
	d.Outputs = append(d.Outputs, prev...)
	return d, nil
}

// NoiseSite is one synthetic crosstalk victim: a net plus the waveform
// trio (noisy input, noiseless input, noiseless output) a technique fit
// consumes. Convert to timer annotations with sta.NoiseAnnotation{Noisy,
// Noiseless, NoiselessOut, Edge}.
type NoiseSite struct {
	Net          string
	Edge         wave.Edge
	Noisy        *wave.Waveform
	Noiseless    *wave.Waveform
	NoiselessOut *wave.Waveform
}

// NoiseSites synthesizes noise annotations for a fraction of the design's
// internal nets: each selected net gets a rising ramp with a
// capacitive-coupling dip of seeded depth and position, plus the matching
// noiseless input/output pair — the same analytic construction as
// examples/quickstart, so every technique (P1..SGDP) fits it. Deterministic
// in (cfg.Seed, frac).
func NoiseSites(cfg Config, d *netlist.Design, vdd float64, frac float64) []NoiseSite {
	if frac <= 0 || len(d.Gates) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x6e6f697365)) // "noise"
	var sites []NoiseSite
	for _, g := range d.Gates {
		net := g.Pins["Y"]
		if rng.Float64() >= frac {
			continue
		}
		const (
			t0   = 300e-12
			slew = 150e-12
			span = 1.2e-9
			n    = 512
		)
		depthV := vdd * (0.15 + 0.2*rng.Float64())
		center := t0 + slew*(0.3+0.4*rng.Float64())
		sigma := 30e-12 + 30e-12*rng.Float64()
		ramp := func(t float64) float64 {
			return math.Max(0, math.Min(vdd, vdd*(t-t0)/(slew/0.8)))
		}
		noisy := func(t float64) float64 {
			glitch := -depthV * math.Exp(-((t-center)/sigma)*((t-center)/sigma))
			return math.Max(-0.2*vdd, math.Min(1.1*vdd, ramp(t)+glitch))
		}
		outRamp := func(t float64) float64 {
			const delay, outSlew = 80e-12, 120e-12
			return vdd - math.Max(0, math.Min(vdd, vdd*(t-t0-delay)/(outSlew/0.8)))
		}
		sites = append(sites, NoiseSite{
			Net:          net,
			Edge:         wave.Rising,
			Noisy:        wave.FromFunc(noisy, 0, span, n),
			Noiseless:    wave.FromFunc(ramp, 0, span, n),
			NoiselessOut: wave.FromFunc(outRamp, 0, span, n),
		})
	}
	return sites
}

// SyntheticLibrary returns an analytic NLDM library for the mesh cell set
// (INVX1, INVX4, NAND2X1) at Vdd = 1.2 V: delay and output transition are
// exact affine functions of input slew and load sampled onto the table
// grid, so bilinear lookup reproduces them everywhere (including the
// boundary-cell extrapolation region). The per-arc evaluation is thereby
// as cheap as conventional characterization allows — the graph, not the
// arc, is the scaling bottleneck — and benchmark designs need no
// transistor-level characterization run. For physically characterized
// numbers use charlib.Characterize instead.
func SyntheticLibrary() *liberty.Library {
	lib := liberty.NewLibrary("netgen-synthetic", 1.2)

	slews := []float64{10e-12, 50e-12, 100e-12, 200e-12, 400e-12, 800e-12}
	loads := []float64{1e-15, 4e-15, 16e-15, 64e-15, 256e-15}
	affine := func(d0, a, bPerF float64) *liberty.Table2D {
		t := &liberty.Table2D{Index1: slews, Index2: loads}
		for _, s := range slews {
			row := make([]float64, len(loads))
			for j, l := range loads {
				row[j] = d0 + a*s + bPerF*l
			}
			t.Values = append(t.Values, row)
		}
		return t
	}
	inv := func(name string, cap, d0, b float64) *liberty.Cell {
		return &liberty.Cell{
			Name: name,
			Pins: []liberty.Pin{
				{Name: "A", Direction: "input", Cap: cap},
				{Name: "Y", Direction: "output"},
			},
			Arcs: []liberty.Arc{{
				From: "A", To: "Y", Sense: liberty.NegativeUnate,
				CellRise: affine(d0, 0.18, b), CellFall: affine(0.9*d0, 0.16, 0.92*b),
				RiseTransition: affine(0.6*d0, 0.22, 1.1*b), FallTransition: affine(0.55*d0, 0.20, b),
			}},
		}
	}
	lib.AddCell(inv("INVX1", 2e-15, 14e-12, 1.9e-12/1e-15))
	lib.AddCell(inv("INVX4", 5.5e-15, 11e-12, 0.55e-12/1e-15))

	nandArc := func(d0, b float64, from string) liberty.Arc {
		return liberty.Arc{
			From: from, To: "Y", Sense: liberty.NegativeUnate,
			CellRise: affine(d0, 0.20, b), CellFall: affine(0.92*d0, 0.17, 0.9*b),
			RiseTransition: affine(0.65*d0, 0.24, 1.15*b), FallTransition: affine(0.6*d0, 0.21, 1.05*b),
		}
	}
	lib.AddCell(&liberty.Cell{
		Name: "NAND2X1",
		Pins: []liberty.Pin{
			{Name: "A", Direction: "input", Cap: 2.6e-15},
			{Name: "B", Direction: "input", Cap: 2.6e-15},
			{Name: "Y", Direction: "output"},
		},
		Arcs: []liberty.Arc{
			nandArc(17e-12, 2.1e-12/1e-15, "A"),
			nandArc(19e-12, 2.2e-12/1e-15, "B"),
		},
	})
	return lib
}
