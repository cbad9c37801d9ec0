package sta

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"testing"

	"noisewave/internal/netgen"
	"noisewave/internal/netlist"
)

// TestCompileFirstErrorAtMeshScale: compile reports one structural error,
// the first in gate order and, within a gate, in check order — cell,
// output pin Y, second driver, then each input pin — with undriven fanins
// only when no gate has an error, and a loop only after that. Each case
// plants two defects on a mesh large enough that the compile splits it
// into gate ranges, and every worker count must return the message the
// sequential compile gives.
func TestCompileFirstErrorAtMeshScale(t *testing.T) {
	cfg := netgen.DefaultConfig(10000)
	cfg.Seed = 1
	mesh, err := netgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(mesh.Gates) < minParallelCompile {
		t.Fatalf("%d gates do not reach the compile's split size %d", len(mesh.Gates), minParallelCompile)
	}
	lib := netgen.SyntheticLibrary()
	// lo and hi fall in different gate ranges at 2, 4 and 16 workers; lo
	// is a NAND2 so that pin order within a gate matters.
	lo := 120
	for mesh.Gates[lo].Cell != "NAND2X1" {
		lo++
	}
	const hi = 9100
	out := func(gi int) string { return mesh.Gates[gi].Pins["Y"] }

	for _, c := range []struct {
		name  string
		plant func(edit func(gi int) *netlist.Gate)
		want  string
	}{
		{"missing Y before unknown cell", func(edit func(int) *netlist.Gate) {
			delete(edit(lo).Pins, "Y")
			edit(hi).Cell = "NOSUCHCELL"
		}, "sta: gate g123 has no output pin Y"},
		{"second driver before unconnected pin", func(edit func(int) *netlist.Gate) {
			g := edit(hi)
			g.Pins["Y"] = out(lo)
			delete(g.Pins, "A")
		}, "sta: net l2_n22 driven by both g123 and g9101"},
		{"missing pin after undriven fanin", func(edit func(int) *netlist.Gate) {
			edit(lo).Pins["B"] = "ghost"
			delete(edit(hi).Pins, "A")
		}, "sta: gate g9101 pin A unconnected"},
		{"two undriven fanins", func(edit func(int) *netlist.Gate) {
			edit(hi).Pins["A"] = "ghost_a"
			edit(lo).Pins["B"] = "ghost_b"
		}, "sta: net ghost_b (input of g123) has no driver"},
		{"loop", func(edit func(int) *netlist.Gate) {
			edit(lo).Pins["A"] = out(hi)
			edit(hi).Pins["A"] = out(lo)
		}, "sta: combinational loop detected"},
	} {
		d := *mesh
		d.Gates = append([]netlist.Gate(nil), mesh.Gates...)
		c.plant(func(gi int) *netlist.Gate {
			d.Gates[gi].Pins = maps.Clone(d.Gates[gi].Pins)
			return &d.Gates[gi]
		})
		tm := New(lib, &d)
		for _, workers := range []int{1, 2, 4, 16} {
			_, err := tm.RunCtx(context.Background(), RunOptions{Workers: workers})
			if err == nil || err.Error() != c.want {
				t.Errorf("%s at %d workers: error %v, want %q", c.name, workers, err, c.want)
			}
		}
	}
}

// TestGateDrivingPrimaryInputRejected: a gate whose output is a primary
// input's net would time into the primary's slot while its consumers read
// the seeded input at level 0, so one net would carry two timings. compile
// rejects the design before any timing, naming the net and the gate.
func TestGateDrivingPrimaryInputRejected(t *testing.T) {
	d := &netlist.Design{
		Name:   "drives-input",
		Inputs: []netlist.Port{{Name: "a", Slew: 50e-12}, {Name: "b", Slew: 50e-12, Arrival: 1e-9}},
	}
	for i := 0; i < 200; i++ {
		d.Gates = append(d.Gates, netlist.Gate{Name: fmt.Sprintf("u%d", i), Cell: "INVX1",
			Pins: map[string]string{"A": "a", "Y": fmt.Sprintf("y%d", i)}})
		d.Outputs = append(d.Outputs, fmt.Sprintf("y%d", i))
	}
	d.Gates = append(d.Gates, netlist.Gate{Name: "drv", Cell: "INVX1", Pins: map[string]string{"A": "b", "Y": "a"}})
	tm := New(netgen.SyntheticLibrary(), d)
	const want = "sta: gate drv drives primary input a"
	for _, workers := range []int{1, 4} {
		_, err := tm.RunCtx(context.Background(), RunOptions{Workers: workers})
		if err == nil || err.Error() != want {
			t.Errorf("%d workers: error %v, want %q", workers, err, want)
		}
	}
}

// TestLevelsIgnoreGateOrder: a design's levels do not depend on the order
// its gates are declared in. A deep mesh declared back to front puts every
// gate before its drivers, so the levelization walks the whole depth from
// each output; it must find the mesh's level count and time bit-identically
// to the map-walk oracle on the same declaration order (the load sums
// follow gate order, so the two orders differ in the last bits).
func TestLevelsIgnoreGateOrder(t *testing.T) {
	cfg := netgen.DefaultConfig(3000)
	cfg.Width = 8
	cfg.Seed = 2
	tm := meshTimer(t, cfg, ElmoreWire)
	fwd, err := tm.RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := *tm.Design
	d.Gates = slices.Clone(d.Gates)
	slices.Reverse(d.Gates)
	rev := New(tm.Lib, &d)
	rev.Wire = ElmoreWire
	want, err := rev.RunReference(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		res, err := rev.RunCtx(context.Background(), RunOptions{Workers: workers})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		requireSameTiming(t, want, res)
		if got, lv := res.graph.levels(), fwd.graph.levels(); got != lv {
			t.Errorf("%d workers: %d levels back to front, %d in order", workers, got, lv)
		}
	}
}
