package sta

import (
	"math"
	"testing"

	"noisewave/internal/netgen"
	"noisewave/internal/netlist"
)

// The compiled graph sums each net's load and receiver pin caps itself; the
// values must stay bit-identical to netLoads, which the map-walk oracle
// uses.
func TestGraphLoadsMatchNetLoads(t *testing.T) {
	cfg := netgen.DefaultConfig(3000)
	cfg.Seed = 3
	mesh := meshTimer(t, cfg, ElmoreWire)
	if len(mesh.Design.Couplings) == 0 {
		t.Fatal("mesh has no couplings")
	}

	// A coupling to a net outside the graph (agg), a gate reading one net
	// on both pins (g1 on a), a wire cap on a net nothing receives (y), and
	// a net coupled to itself.
	hand := New(netgen.SyntheticLibrary(), &netlist.Design{
		Name:   "loads",
		Inputs: []netlist.Port{{Name: "a", Slew: 50e-12}, {Name: "b", Slew: 80e-12}},
		Gates: []netlist.Gate{
			{Name: "g1", Cell: "NAND2X1", Pins: map[string]string{"A": "a", "B": "a", "Y": "n1"}},
			{Name: "g2", Cell: "INVX4", Pins: map[string]string{"A": "n1", "Y": "y"}},
			{Name: "g3", Cell: "NAND2X1", Pins: map[string]string{"A": "n1", "B": "b", "Y": "z"}},
		},
		Outputs: []string{"y", "z"},
		NetCaps: map[string]float64{"a": 0.7e-15, "n1": 3.3e-15, "y": 7.1e-15},
		Couplings: []netlist.Coupling{
			{A: "n1", B: "agg", Cap: 1.9e-15},
			{A: "z", B: "n1", Cap: 0.37e-15},
			{A: "b", B: "b", Cap: 0.11e-15},
		},
	})

	for name, tm := range map[string]*Timer{"mesh": mesh, "hand": hand} {
		g, err := compile(tm.Design, tm.Lib, 1)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		loads, pinCaps, err := tm.netLoads()
		if err != nil {
			t.Fatalf("%s: netLoads: %v", name, err)
		}
		for id, net := range g.netName {
			if math.Float64bits(g.load[id]) != math.Float64bits(loads[net]) {
				t.Errorf("%s: net %s load %.17g, netLoads %.17g", name, net, g.load[id], loads[net])
			}
			if math.Float64bits(g.pinCap[id]) != math.Float64bits(pinCaps[net]) {
				t.Errorf("%s: net %s pin cap %.17g, netLoads %.17g", name, net, g.pinCap[id], pinCaps[net])
			}
		}
		if _, ok := g.netID["agg"]; ok {
			t.Fatalf("%s: coupling-only net agg was interned", name)
		}
	}
}
