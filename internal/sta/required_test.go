package sta

import (
	"context"
	"math"
	"sync"
	"testing"

	"noisewave/internal/netgen"
	"noisewave/internal/netlist"
	"noisewave/internal/telemetry"
	"noisewave/internal/wave"
)

// requireMatchesReference asserts the required times by net ID carry the
// map walk's bits on both edges for every net of the run, and that a net
// the walk never reached — an unread, unconstrained primary input — has
// none. A constrained name the run has no net for binds to nothing.
func requireMatchesReference(t *testing.T, want map[string]*[2]float64, got *RequiredTimes) {
	t.Helper()
	for id, name := range got.graph.netName {
		w, ok := want[name]
		if !ok {
			w = &[2]float64{math.Inf(1), math.Inf(1)}
		}
		if g := got.req[id]; !sameRequired(*w, g) {
			t.Fatalf("net %s required times differ: want %+v, got %+v", name, *w, g)
		}
	}
}

// requireSameRequired asserts two required-time sets of one run carry
// bit-identical required times on both edges of every net.
func requireSameRequired(t *testing.T, want, got *RequiredTimes) {
	t.Helper()
	if want.graph != got.graph || len(want.req) != len(got.req) {
		t.Fatalf("required times of different runs: %d vs %d nets", len(want.req), len(got.req))
	}
	for id, w := range want.req {
		if !sameRequired(w, got.req[id]) {
			t.Fatalf("net %s required times differ: want %+v, got %+v", want.graph.netName[id], w, got.req[id])
		}
	}
}

// sameRequired compares both edges' required times bit for bit.
func sameRequired(a, b [2]float64) bool {
	return math.Float64bits(a[0]) == math.Float64bits(b[0]) && math.Float64bits(a[1]) == math.Float64bits(b[1])
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
				requireMatchesReference(t, want, got)
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
	requireMatchesReference(t, want, got)
	if _, ok := got.Slack("spare", wave.Rising); ok {
		t.Fatal("unread, unconstrained primary input spare has a slack")
	}
	if _, ok := got.Slack("tied", wave.Rising); !ok {
		t.Fatal("constrained primary input tied has no slack")
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
