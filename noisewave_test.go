package noisewave

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
)

// TestFacadeWaveforms exercises the exported waveform surface.
func TestFacadeWaveforms(t *testing.T) {
	w, err := NewWaveform([]float64{0, 1e-9}, []float64{0, 1.2})
	if err != nil {
		t.Fatal(err)
	}
	if w.EdgeDir() != Rising {
		t.Error("edge")
	}
	if _, err := NewWaveform([]float64{1, 0}, []float64{0, 1}); err == nil {
		t.Error("invalid waveform accepted")
	}
}

// TestFacadeTechniques checks the exported technique registry and a full
// fit through the public types only.
func TestFacadeTechniques(t *testing.T) {
	if len(AllTechniques()) != 6 {
		t.Fatalf("techniques: %d", len(AllTechniques()))
	}
	if _, err := TechniqueByName("SGDP"); err != nil {
		t.Fatal(err)
	}
	if _, err := TechniqueByName("XXX"); err == nil {
		t.Error("unknown technique accepted")
	}

	const vdd = 1.2
	mk := func(t0, full float64, invert bool) *Waveform {
		ts := make([]float64, 900)
		vs := make([]float64, 900)
		for i := range ts {
			ts[i] = float64(i) * 2e-12
			u := (ts[i] - t0) / full
			u = math.Max(0, math.Min(1, u))
			if invert {
				u = 1 - u
			}
			vs[i] = vdd * u
		}
		w, err := NewWaveform(ts, vs)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	in := TechniqueInput{
		Noisy:        mk(0.4e-9, 0.3e-9, false),
		Noiseless:    mk(0.4e-9, 0.3e-9, false),
		NoiselessOut: mk(0.5e-9, 0.15e-9, true),
		Vdd:          vdd,
		Edge:         Rising,
	}
	gamma, err := NewSGDP().Equivalent(in)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := gamma.Arrival()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := in.Noisy.LastCrossing(0.5 * vdd)
	if math.Abs(arr-want) > 10e-12 {
		t.Errorf("facade SGDP arrival %.1f ps, want %.1f ps", arr*1e12, want*1e12)
	}
}

// TestFacadeSTAFlow runs the parse → characterize-free → time flow through
// the facade with a synthetic library file.
func TestFacadeSTAFlow(t *testing.T) {
	lib, err := ParseLibrary(strings.NewReader(`
library (t) {
  nom_voltage : 1.2;
  cell (INVX1) {
    pin (A) { direction : input; capacitance : 0.002; }
    pin (Y) {
      direction : output;
      timing () {
        related_pin : "A";
        timing_sense : negative_unate;
        cell_rise (x) { index_1 ("0.01,0.5"); index_2 ("0.001,0.1"); values ("0.01,0.02","0.03,0.04"); }
        cell_fall (x) { index_1 ("0.01,0.5"); index_2 ("0.001,0.1"); values ("0.01,0.02","0.03,0.04"); }
        rise_transition (x) { index_1 ("0.01,0.5"); index_2 ("0.001,0.1"); values ("0.02,0.03","0.04,0.05"); }
        fall_transition (x) { index_1 ("0.01,0.5"); index_2 ("0.001,0.1"); values ("0.02,0.03","0.04,0.05"); }
      }
    }
  }
}`))
	if err != nil {
		t.Fatal(err)
	}
	d, err := ParseNetlist(strings.NewReader(`
design t
input a
output y
gate u1 INVX1 A=a Y=y
`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewTimer(lib, d).RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nets["y"] == nil || !res.Nets["y"].Rise.Valid {
		t.Fatal("no timing at output")
	}
}

// TestFacadeConfigurations spot-checks the exported testbench constructors.
func TestFacadeConfigurations(t *testing.T) {
	tech := DefaultTech()
	c1 := ConfigurationI(tech)
	c2 := ConfigurationII(tech)
	if c1.Aggressors != 1 || c2.Aggressors != 2 {
		t.Errorf("aggressors: %d %d", c1.Aggressors, c2.Aggressors)
	}
	if c1.LineLengthUm != 1000 || c2.LineLengthUm != 500 {
		t.Errorf("lengths: %g %g", c1.LineLengthUm, c2.LineLengthUm)
	}
	if !math.IsInf(QuietAggressor(), 1) {
		t.Error("QuietAggressor sentinel")
	}
}

// TestFacadeMeshTiming drives the full-chip surface end to end: generate a
// mesh, write and re-parse it, then time it with the context-first API at
// two worker counts and check the results agree.
func TestFacadeMeshTiming(t *testing.T) {
	cfg := DefaultMesh(400)
	cfg.Seed = 12
	d, err := GenerateMesh(cfg)
	if err != nil {
		t.Fatalf("GenerateMesh: %v", err)
	}

	var buf bytes.Buffer
	if err := WriteNetlist(&buf, d); err != nil {
		t.Fatalf("WriteNetlist: %v", err)
	}
	d2, err := ParseNetlist(&buf)
	if err != nil {
		t.Fatalf("ParseNetlist(WriteNetlist(mesh)): %v", err)
	}

	lib := SyntheticMeshLibrary()
	timer := NewTimer(lib, d)
	timer.Wire = ElmoreWire
	res, err := timer.RunCtx(context.Background(), RunOptions{Workers: 4})
	if err != nil {
		t.Fatalf("RunCtx: %v", err)
	}

	timer2 := NewTimer(lib, d2)
	timer2.Wire = ElmoreWire
	res2, err := timer2.RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatalf("RunCtx on round-tripped design: %v", err)
	}

	net, edge, at, err := res.WorstOutput(d.Outputs)
	if err != nil {
		t.Fatalf("WorstOutput: %v", err)
	}
	net2, edge2, at2, err := res2.WorstOutput(d2.Outputs)
	if err != nil {
		t.Fatalf("WorstOutput (round-tripped): %v", err)
	}
	if net != net2 || edge != edge2 || at.Arrival != at2.Arrival {
		t.Fatalf("round-tripped mesh times differently: (%s,%v,%g) vs (%s,%v,%g)",
			net, edge, at.Arrival, net2, edge2, at2.Arrival)
	}

	path, err := res.CriticalPath(net, edge)
	if err != nil {
		t.Fatalf("CriticalPath: %v", err)
	}
	if len(path) < 2 {
		t.Fatalf("critical path too short: %d steps", len(path))
	}
	var _ []PathStep = path
	var _ *TimingResult = res
}

// TestFacadeMeshNoise attaches synthetic noise sites through the facade.
func TestFacadeMeshNoise(t *testing.T) {
	cfg := DefaultMesh(300)
	cfg.Seed = 8
	d, err := GenerateMesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lib := SyntheticMeshLibrary()
	timer := NewTimer(lib, d)
	sites := MeshNoiseSites(cfg, d, lib.Vdd, 0.1)
	if len(sites) == 0 {
		t.Fatal("no mesh noise sites")
	}
	for _, s := range sites {
		timer.Annotate(s.Net, &NoiseAnnotation{
			Noisy: s.Noisy, Noiseless: s.Noiseless, NoiselessOut: s.NoiselessOut, Edge: s.Edge,
		})
	}
	if _, err := timer.RunCtx(context.Background(), RunOptions{Workers: 2}); err != nil {
		t.Fatalf("noisy mesh RunCtx: %v", err)
	}
}
