package sta

import (
	"context"
	"testing"

	"noisewave/internal/netgen"
	"noisewave/internal/netlist"
	"noisewave/internal/spef"
)

// A Timer keeps no compiled state between runs: SPEF parasitics merged
// into its Design in place, a primary input's arrival and slew edited in
// place and a reassigned Lib all reach the next run, which matches a fresh
// Timer's run bit for bit.
func TestRerunSeesDesignEdits(t *testing.T) {
	cfg := netgen.DefaultConfig(600)
	cfg.Seed = 2
	tm := meshTimer(t, cfg, ElmoreWire)
	annotateSites(tm, netgen.NoiseSites(cfg, tm.Design, tm.Lib.Vdd, 0.05))
	d := tm.Design

	par := &spef.Parasitics{GroundCap: make(map[string]float64)}
	for i := 0; i+1 < len(d.Gates); i += 37 {
		a, b := d.Gates[i].Pins["Y"], d.Gates[i+1].Pins["Y"]
		par.GroundCap[a] = 8e-15
		par.Couplings = append(par.Couplings, netlist.Coupling{A: a, B: b, Cap: 5e-15})
	}
	slow := netgen.SyntheticLibrary()
	inv, err := slow.Cell("INVX1")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range inv.Arcs[0].CellRise.Values {
		for j := range row {
			row[j] *= 1.25
		}
	}

	run := func(tm *Timer) *Result {
		t.Helper()
		res, err := tm.RunCtx(context.Background(), RunOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	prev := run(tm)
	for _, step := range []struct {
		name string
		edit func()
	}{
		{"SPEF annotated in place", func() { par.Annotate(d) }},
		{"input arrival and slew edited in place", func() {
			d.Inputs[0].Arrival += 40e-12
			d.Inputs[0].Slew *= 2
		}},
		{"Lib reassigned", func() { tm.Lib = slow }},
	} {
		step.edit()
		got := run(tm)
		fresh := New(tm.Lib, d)
		fresh.Wire = ElmoreWire
		fresh.Noise = tm.Noise
		requireSameTiming(t, run(fresh), got)
		changed := false
		for name, n := range prev.Nets {
			if g := got.Nets[name]; g == nil || *g != *n {
				changed = true
				break
			}
		}
		if !changed {
			t.Fatalf("%s: timing unchanged, so the step tests nothing", step.name)
		}
		prev = got
	}
}
