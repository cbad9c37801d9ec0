package netgen

import (
	"bytes"
	"testing"

	"noisewave/internal/netlist"
	"noisewave/internal/wave"
)

// Same config, same seed → byte-identical netlist text.
func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig(2000)
	cfg.Seed = 42
	d1, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	d2, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var b1, b2 bytes.Buffer
	if err := netlist.Write(&b1, d1); err != nil {
		t.Fatal(err)
	}
	if err := netlist.Write(&b2, d2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("same seed produced different designs")
	}

	cfg.Seed = 43
	d3, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var b3 bytes.Buffer
	if err := netlist.Write(&b3, d3); err != nil {
		t.Fatal(err)
	}
	if b1.String() == b3.String() {
		t.Fatal("different seeds produced identical designs")
	}
}

func TestGenerateShapeAndValidate(t *testing.T) {
	for _, gates := range []int{1, 17, 1000, 5000} {
		cfg := DefaultConfig(gates)
		cfg.Seed = 7
		d, err := Generate(cfg)
		if err != nil {
			t.Fatalf("Generate(%d): %v", gates, err)
		}
		if len(d.Gates) != gates {
			t.Fatalf("Generate(%d): got %d gates", gates, len(d.Gates))
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("Generate(%d): Validate: %v", gates, err)
		}
		if len(d.Inputs) == 0 || len(d.Outputs) == 0 {
			t.Fatalf("Generate(%d): %d inputs, %d outputs", gates, len(d.Inputs), len(d.Outputs))
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{}); err == nil {
		t.Fatal("Generate(zero config) should fail")
	}
	cfg := DefaultConfig(100)
	cfg.NandFrac = 1.5
	if _, err := Generate(cfg); err == nil {
		t.Fatal("NandFrac > 1 should fail")
	}
}

// Zero wire parameters give a pure gate-delay mesh: no parasitic
// annotation at all.
func TestGenerateNoWire(t *testing.T) {
	cfg := DefaultConfig(500)
	cfg.WireCap, cfg.WireRes, cfg.CoupleFrac = 0, 0, 0
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.NetCaps) != 0 || len(d.NetRes) != 0 || len(d.Couplings) != 0 {
		t.Fatalf("zero wire parameters left parasitics: %d caps, %d res, %d couplings",
			len(d.NetCaps), len(d.NetRes), len(d.Couplings))
	}
}

// A generated mesh must survive Write → Parse unchanged in structure.
func TestGenerateRoundTripsThroughWriter(t *testing.T) {
	cfg := DefaultConfig(300)
	cfg.Seed = 11
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := netlist.Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := netlist.Parse(&buf)
	if err != nil {
		t.Fatalf("Parse(Write(mesh)): %v", err)
	}
	if got.Name != d.Name || len(got.Gates) != len(d.Gates) ||
		len(got.Inputs) != len(d.Inputs) || len(got.NetCaps) != len(d.NetCaps) ||
		len(got.Couplings) != len(d.Couplings) {
		t.Fatal("round-tripped mesh differs structurally")
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("Validate after round trip: %v", err)
	}
}

// SyntheticLibrary must cover every cell the generator emits, and every
// arc must evaluate inside (and beyond) its table grid.
func TestSyntheticLibraryCoversMeshCells(t *testing.T) {
	lib := SyntheticLibrary()
	for _, name := range []string{"INVX1", "INVX4", "NAND2X1"} {
		cell, err := lib.Cell(name)
		if err != nil {
			t.Fatalf("Cell(%s): %v", name, err)
		}
		for _, pin := range cell.InputPins() {
			arc, ok := cell.ArcTo(pin)
			if !ok {
				t.Fatalf("%s: no arc %s->Y", name, pin)
			}
			for _, trans := range []float64{10e-12, 120e-12, 1e-9} {
				for _, load := range []float64{1e-15, 20e-15, 500e-15} {
					for _, e := range []wave.Edge{wave.Rising, wave.Falling} {
						delay, outTrans, _, err := arc.Delay(e, trans, load)
						if err != nil {
							t.Fatalf("%s %s->Y Delay(%v, %g, %g): %v", name, pin, e, trans, load, err)
						}
						if delay <= 0 || outTrans <= 0 {
							t.Fatalf("%s %s->Y: non-positive delay %g / trans %g", name, pin, delay, outTrans)
						}
					}
				}
			}
		}
	}
}

func TestNoiseSitesDeterministicAndBounded(t *testing.T) {
	cfg := DefaultConfig(400)
	cfg.Seed = 3
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NoiseSites(cfg, d, 1.2, 0.1)
	s2 := NoiseSites(cfg, d, 1.2, 0.1)
	if len(s1) == 0 {
		t.Fatal("NoiseSites selected no nets at frac 0.1")
	}
	if len(s1) != len(s2) {
		t.Fatalf("non-deterministic site count: %d vs %d", len(s1), len(s2))
	}
	if len(s1) >= len(d.Gates) {
		t.Fatalf("frac 0.1 selected %d of %d nets", len(s1), len(d.Gates))
	}
	for i := range s1 {
		if s1[i].Net != s2[i].Net {
			t.Fatalf("site %d net differs: %s vs %s", i, s1[i].Net, s2[i].Net)
		}
		if s1[i].Noisy == nil || s1[i].Noiseless == nil || s1[i].NoiselessOut == nil {
			t.Fatalf("site %d (%s) has nil waveform", i, s1[i].Net)
		}
	}
	if got := NoiseSites(cfg, d, 1.2, 0); got != nil {
		t.Fatalf("frac 0 should produce no sites, got %d", len(got))
	}
}
