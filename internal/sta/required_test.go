package sta

import (
	"context"
	"math"
	"sync"
	"testing"

	"noisewave/internal/netgen"
	"noisewave/internal/netlist"
	"noisewave/internal/telemetry"
)

// requireSameRequired asserts two required-time sets name the same nets
// and carry bit-identical required times on both edges.
func requireSameRequired(t *testing.T, want, got *RequiredTimes) {
	t.Helper()
	if len(want.Required) != len(got.Required) {
		t.Fatalf("required-time net count differs: %d vs %d", len(want.Required), len(got.Required))
	}
	for name, w := range want.Required {
		g, ok := got.Required[name]
		if !ok {
			t.Fatalf("net %s missing from second required-time set", name)
		}
		if math.Float64bits(w.Rise) != math.Float64bits(g.Rise) || math.Float64bits(w.Fall) != math.Float64bits(g.Fall) {
			t.Fatalf("net %s required times differ: want %+v, got %+v", name, *w, *g)
		}
	}
}

// annotateSites attaches netgen's noise sites to a timer.
func annotateSites(tm *Timer, sites []netgen.NoiseSite) {
	for _, s := range sites {
		tm.Annotate(s.Net, &NoiseAnnotation{
			Noisy: s.Noisy, Noiseless: s.Noiseless, NoiselessOut: s.NoiselessOut, Edge: s.Edge,
		})
	}
}

// The graph-based backward pass must reproduce the map-walk oracle — the
// same nets and the same float bits — on a noisy mesh wide enough to engage
// the worker pool, under both wire models, at 1 and 4 workers, and on the
// Result of a timer's second run.
func TestRequiredMatchesReference(t *testing.T) {
	cfg := netgen.DefaultConfig(2000)
	cfg.Width = 100
	cfg.Seed = 9
	for _, wire := range []WireModel{IdealWire, ElmoreWire} {
		tm := meshTimer(t, cfg, wire)
		annotateSites(tm, netgen.NoiseSites(cfg, tm.Design, tm.Lib.Vdd, 0.05))
		constraints := map[string]float64{"not-in-design": 1e-9}
		for i, o := range tm.Design.Outputs {
			constraints[o] = 1.5e-9 + float64(i%7)*0.1e-9
		}
		for pass := 1; pass <= 2; pass++ {
			for _, workers := range []int{1, 4} {
				reg := telemetry.New()
				res, err := tm.RunCtx(context.Background(), RunOptions{Workers: workers, Telemetry: reg})
				if err != nil {
					t.Fatal(err)
				}
				if reg.Counter("sta.noise_conversions").Value() == 0 {
					t.Fatal("no noise conversions on the mesh")
				}
				want, err := tm.computeRequiredReference(res, constraints)
				if err != nil {
					t.Fatal(err)
				}
				got, err := tm.ComputeRequired(res, constraints)
				if err != nil {
					t.Fatal(err)
				}
				requireSameRequired(t, want, got)
			}
		}
	}

	// A primary input no gate reads has no requirement unless constrained,
	// as in the map walk.
	d := &netlist.Design{
		Name:    "spare",
		Inputs:  []netlist.Port{{Name: "a", Slew: 50e-12}, {Name: "spare", Slew: 50e-12}, {Name: "tied", Slew: 50e-12}},
		Gates:   []netlist.Gate{{Name: "u1", Cell: "INVX1", Pins: map[string]string{"A": "a", "Y": "y"}}},
		Outputs: []string{"y"},
	}
	tm := New(netgen.SyntheticLibrary(), d)
	res, err := tm.RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	constraints := map[string]float64{"y": 1e-9, "tied": 0.5e-9}
	want, err := tm.computeRequiredReference(res, constraints)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tm.ComputeRequired(res, constraints)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRequired(t, want, got)
	if _, ok := got.Required["spare"]; ok {
		t.Fatal("unread, unconstrained primary input spare has a required time")
	}
}

// ComputeRequired reads only its Result, so it may run while Annotate
// changes the timer's annotations and while another call reads the same
// Result; an annotation added after the run changes neither answer. Run
// under -race.
func TestConcurrentRequired(t *testing.T) {
	cfg := netgen.DefaultConfig(1000)
	cfg.Seed = 6
	tm := meshTimer(t, cfg, ElmoreWire)
	sites := netgen.NoiseSites(cfg, tm.Design, tm.Lib.Vdd, 0.1)
	if len(sites) < 2 {
		t.Fatalf("%d noise sites, want at least 2", len(sites))
	}
	half := len(sites) / 2
	annotateSites(tm, sites[:half])
	res, err := tm.RunCtx(context.Background(), RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	constraints := make(map[string]float64, len(tm.Design.Outputs))
	for _, o := range tm.Design.Outputs {
		constraints[o] = 2e-9
	}
	want, err := tm.ComputeRequired(res, constraints)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	got := make([]*RequiredTimes, 2)
	errs := make([]error, len(got))
	wg.Add(1)
	go func() {
		defer wg.Done()
		annotateSites(tm, sites[half:])
	}()
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = tm.ComputeRequired(res, constraints)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("concurrent ComputeRequired: %v", errs[i])
		}
		requireSameRequired(t, want, got[i])
	}
}
