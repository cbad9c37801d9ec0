package sta

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"noisewave/internal/netgen"
	"noisewave/internal/netlist"
	"noisewave/internal/telemetry"
)

// meshTimer builds a timer over a generated mesh and the synthetic library.
func meshTimer(t *testing.T, cfg netgen.Config, w WireModel) *Timer {
	t.Helper()
	d, err := netgen.Generate(cfg)
	if err != nil {
		t.Fatalf("netgen.Generate: %v", err)
	}
	tm := New(netgen.SyntheticLibrary(), d)
	tm.Wire = w
	return tm
}

// requireSameTiming asserts two results carry bit-identical timing for
// every net: arrivals, early arrivals, transitions, validity and the path
// back-pointers, on both edges.
func requireSameTiming(t *testing.T, want, got *Result) {
	t.Helper()
	if len(want.Nets) != len(got.Nets) {
		t.Fatalf("net count differs: %d vs %d", len(want.Nets), len(got.Nets))
	}
	for name, wn := range want.Nets {
		gn, ok := got.Nets[name]
		if !ok {
			t.Fatalf("net %s missing from second result", name)
		}
		if *wn != *gn {
			t.Fatalf("net %s timing differs:\nwant %+v\n got %+v", name, *wn, *gn)
		}
	}
}

// The levelized engine must reproduce the sequential map-based walk bit
// for bit at any worker count, including levels wide enough to engage the
// worker pool and a design large enough that the compile splits into gate
// ranges, under both wire models.
func TestParallelMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		gates int
		width int
		wire  WireModel
	}{
		{"elmore-wide", 4096, 128, ElmoreWire},
		{"ideal-narrow", 900, 30, IdealWire},
		{"elmore-split", 2 * minParallelCompile, 0, ElmoreWire},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := netgen.DefaultConfig(tc.gates)
			cfg.Width = tc.width
			cfg.Seed = 1
			tm := meshTimer(t, cfg, tc.wire)
			ref, err := tm.RunReference(nil)
			if err != nil {
				t.Fatalf("RunReference: %v", err)
			}
			for _, workers := range []int{1, 2, 4, 16} {
				res, err := tm.RunCtx(context.Background(), RunOptions{Workers: workers})
				if err != nil {
					t.Fatalf("RunCtx(workers=%d): %v", workers, err)
				}
				requireSameTiming(t, ref, res)
			}
			// The legacy wrapper is the sequential path.
			res, err := tm.RunCtx(context.Background(), RunOptions{Workers: 1})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			requireSameTiming(t, ref, res)
		})
	}
}

// Slacks from the map walk (both passes) and from the compiled graph (both
// passes) must agree exactly.
func TestParallelSlacksMatchReference(t *testing.T) {
	cfg := netgen.DefaultConfig(2000)
	cfg.Seed = 5
	tm := meshTimer(t, cfg, ElmoreWire)
	constraints := make(map[string]float64, len(tm.Design.Outputs))
	for _, o := range tm.Design.Outputs {
		constraints[o] = 2e-9
	}

	ref, err := tm.RunReference(nil)
	if err != nil {
		t.Fatal(err)
	}
	refReq, err := tm.computeRequiredReference(ref, constraints)
	if err != nil {
		t.Fatal(err)
	}
	refNet, refEdge, refSlack, ok := refReq.WorstSlack(ref)
	if !ok {
		t.Fatal("reference worst slack not found")
	}

	res, err := tm.RunCtx(context.Background(), RunOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	req, err := tm.ComputeRequired(res, constraints)
	if err != nil {
		t.Fatal(err)
	}
	net, edge, slack, ok := req.WorstSlack(res)
	if !ok {
		t.Fatal("parallel worst slack not found")
	}
	if net != refNet || edge != refEdge || slack != refSlack {
		t.Fatalf("worst slack differs: ref (%s, %v, %g) vs parallel (%s, %v, %g)",
			refNet, refEdge, refSlack, net, edge, slack)
	}
}

// Noise-annotated meshes: the levelized engine converts at level
// boundaries, the reference converts lazily at the first consumer — the
// timing and the number of technique fits must match exactly.
func TestParallelNoiseEquivalence(t *testing.T) {
	cfg := netgen.DefaultConfig(2000)
	cfg.Width = 64
	cfg.Seed = 9
	tm := meshTimer(t, cfg, ElmoreWire)
	sites := netgen.NoiseSites(cfg, tm.Design, tm.Lib.Vdd, 0.08)
	if len(sites) == 0 {
		t.Fatal("no noise sites generated")
	}
	for _, s := range sites {
		tm.Annotate(s.Net, &NoiseAnnotation{
			Noisy: s.Noisy, Noiseless: s.Noiseless, NoiselessOut: s.NoiselessOut, Edge: s.Edge,
		})
	}

	regRef := telemetry.New()
	ref, err := tm.RunReference(regRef)
	if err != nil {
		t.Fatalf("RunReference: %v", err)
	}

	for _, workers := range []int{1, 8} {
		reg := telemetry.New()
		res, err := tm.RunCtx(context.Background(), RunOptions{Workers: workers, Telemetry: reg})
		if err != nil {
			t.Fatalf("RunCtx(workers=%d): %v", workers, err)
		}
		requireSameTiming(t, ref, res)
		refConv := regRef.Counter("sta.noise_conversions").Value()
		gotConv := reg.Counter("sta.noise_conversions").Value()
		if refConv == 0 {
			t.Fatal("reference performed no noise conversions")
		}
		if gotConv != refConv {
			t.Fatalf("workers=%d: %d conversions, reference did %d", workers, gotConv, refConv)
		}
	}
}

// A context canceled before the run starts must stop propagation with an
// error matching telemetry.ErrCanceled.
func TestRunCtxPreCanceled(t *testing.T) {
	cfg := netgen.DefaultConfig(500)
	tm := meshTimer(t, cfg, IdealWire)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := tm.RunCtx(ctx, RunOptions{Workers: 4})
	if err == nil {
		t.Fatal("RunCtx with canceled ctx succeeded")
	}
	if !errors.Is(err, telemetry.ErrCanceled) {
		t.Fatalf("error %v does not match telemetry.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not match context.Canceled", err)
	}
}

// countdownCtx reports cancellation after its Err budget is exhausted —
// tripping the engine's level-boundary check mid-propagation.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestRunCtxCanceledMidPropagation(t *testing.T) {
	cfg := netgen.DefaultConfig(2000)
	cfg.Width = 64 // depth ~31: plenty of level boundaries
	tm := meshTimer(t, cfg, IdealWire)
	ctx := &countdownCtx{Context: context.Background()}
	ctx.left.Store(3)
	reg := telemetry.New()
	_, err := tm.RunCtx(ctx, RunOptions{Workers: 1, Telemetry: reg})
	if err == nil {
		t.Fatal("RunCtx survived a mid-run cancellation")
	}
	if !errors.Is(err, telemetry.ErrCanceled) {
		t.Fatalf("error %v does not match telemetry.ErrCanceled", err)
	}
	timed := reg.Counter("sta.gates_timed").Value()
	if timed == 0 || timed >= int64(len(tm.Design.Gates)) {
		t.Fatalf("cancellation was not mid-propagation: %d of %d gates timed",
			timed, len(tm.Design.Gates))
	}
}

// Both engines must reject a multi-driven net with the typed error naming
// the net and both drivers.
func TestMultiDriverErrorTyped(t *testing.T) {
	d := &netlist.Design{
		Name:   "dup",
		Inputs: []netlist.Port{{Name: "a", Slew: 50e-12}},
		Gates: []netlist.Gate{
			{Name: "g1", Cell: "INVX1", Pins: map[string]string{"A": "a", "Y": "n1"}},
			{Name: "g2", Cell: "INVX1", Pins: map[string]string{"A": "a", "Y": "n1"}},
		},
		Outputs: []string{"n1"},
	}
	tm := New(netgen.SyntheticLibrary(), d)

	for name, run := range map[string]func() (*Result, error){
		"reference": func() (*Result, error) { return tm.RunReference(nil) },
		"levelized": func() (*Result, error) { return tm.RunCtx(context.Background(), RunOptions{}) },
	} {
		_, err := run()
		var mde *MultiDriverError
		if !errors.As(err, &mde) {
			t.Fatalf("%s: error %v is not a *MultiDriverError", name, err)
		}
		if mde.Net != "n1" {
			t.Fatalf("%s: wrong net %q", name, mde.Net)
		}
		drivers := map[string]bool{mde.Driver1: true, mde.Driver2: true}
		if !drivers["g1"] || !drivers["g2"] {
			t.Fatalf("%s: wrong drivers %q, %q", name, mde.Driver1, mde.Driver2)
		}
	}
}

// An internal net no gate drives must fail levelization on both engines,
// at any worker count.
func TestUndrivenNetError(t *testing.T) {
	d := &netlist.Design{
		Name:   "ghost",
		Inputs: []netlist.Port{{Name: "a", Slew: 50e-12}},
		Gates: []netlist.Gate{
			{Name: "g1", Cell: "NAND2X1", Pins: map[string]string{"A": "a", "B": "phantom", "Y": "y"}},
		},
		Outputs: []string{"y"},
	}
	tm := New(netgen.SyntheticLibrary(), d)
	if _, err := tm.RunReference(nil); err == nil {
		t.Fatal("reference accepted an undriven net")
	}
	for _, workers := range []int{1, 4} {
		if _, err := tm.RunCtx(context.Background(), RunOptions{Workers: workers}); err == nil {
			t.Fatalf("levelized engine accepted an undriven net at %d workers", workers)
		}
	}
}

// Disconnected components levelize and time independently.
func TestDisconnectedDesign(t *testing.T) {
	d := &netlist.Design{
		Name: "islands",
		Inputs: []netlist.Port{
			{Name: "a", Slew: 50e-12},
			{Name: "b", Slew: 80e-12, Arrival: 20e-12},
		},
		Gates: []netlist.Gate{
			{Name: "g1", Cell: "INVX1", Pins: map[string]string{"A": "a", "Y": "y1"}},
			{Name: "g2", Cell: "INVX4", Pins: map[string]string{"A": "b", "Y": "y2"}},
		},
		Outputs: []string{"y1", "y2"},
	}
	tm := New(netgen.SyntheticLibrary(), d)
	ref, err := tm.RunReference(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tm.RunCtx(context.Background(), RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	requireSameTiming(t, ref, res)
	for _, o := range d.Outputs {
		if nt := res.Nets[o]; nt == nil || !nt.Rise.Valid || !nt.Fall.Valid {
			t.Fatalf("output %s not fully timed: %+v", o, nt)
		}
	}
}

// Result.Order from the levelized engine must be a topological order: every
// gate appears after the drivers of all its inputs.
func TestParallelOrderTopological(t *testing.T) {
	cfg := netgen.DefaultConfig(800)
	cfg.Seed = 4
	tm := meshTimer(t, cfg, IdealWire)
	res, err := tm.RunCtx(context.Background(), RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != len(tm.Design.Gates) {
		t.Fatalf("Order has %d gates, design has %d", len(res.Order), len(tm.Design.Gates))
	}
	pos := make(map[string]int, len(res.Order))
	for i, g := range res.Order {
		pos[g] = i
	}
	driver := make(map[string]string)
	for _, g := range tm.Design.Gates {
		driver[g.Pins["Y"]] = g.Name
	}
	for _, g := range tm.Design.Gates {
		for pin, net := range g.Pins {
			if pin == "Y" {
				continue
			}
			drv, ok := driver[net]
			if !ok {
				continue // primary input
			}
			if pos[drv] >= pos[g.Name] {
				t.Fatalf("gate %s (pos %d) precedes its driver %s (pos %d)",
					g.Name, pos[g.Name], drv, pos[drv])
			}
		}
	}
}

// Annotate during an in-flight RunCtx is defined behavior: each run works
// from a snapshot. Run under -race to validate the locking.
func TestConcurrentAnnotateAndRun(t *testing.T) {
	cfg := netgen.DefaultConfig(1000)
	cfg.Seed = 6
	tm := meshTimer(t, cfg, ElmoreWire)
	sites := netgen.NoiseSites(cfg, tm.Design, tm.Lib.Vdd, 0.05)
	if len(sites) == 0 {
		t.Fatal("no noise sites")
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				if _, err := tm.RunCtx(context.Background(), RunOptions{Workers: 4}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, s := range sites {
			tm.Annotate(s.Net, &NoiseAnnotation{
				Noisy: s.Noisy, Noiseless: s.Noiseless, NoiselessOut: s.NoiselessOut, Edge: s.Edge,
			})
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent RunCtx: %v", err)
	}
}

// benchMesh times one pass over a pinned mesh with noiseFrac of its nets
// SGDP-annotated the way perfbench's sta-noisy workload does it (0 =
// clean). mode picks the pass: "reference" is the map walk, "levelized" is
// RunCtx (graph compile included), "compile" is the graph compile alone
// and "required" is ComputeRequired, all outputs constrained, on the
// Result of one RunCtx.
func benchMesh(b *testing.B, mode string, gates, workers int, noiseFrac float64) {
	cfg := netgen.DefaultConfig(gates)
	cfg.Seed = 1
	d, err := netgen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tm := New(netgen.SyntheticLibrary(), d)
	tm.Wire = ElmoreWire
	annotateSites(tm, netgen.NoiseSites(cfg, d, tm.Lib.Vdd, noiseFrac))
	opts := RunOptions{Workers: workers}
	var res *Result
	if mode == "required" {
		if res, err = tm.RunCtx(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
	constraints := make(map[string]float64, len(d.Outputs))
	for _, o := range d.Outputs {
		constraints[o] = 20e-9
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch mode {
		case "reference":
			_, err = tm.RunReference(nil)
		case "compile":
			_, err = compile(d, tm.Lib, workers)
		case "required":
			_, err = tm.ComputeRequired(res, constraints)
		default:
			_, err = tm.RunCtx(context.Background(), opts)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMesh is the gates-vs-wall scaling matrix behind EXPERIMENTS.md
// "Full-chip STA at scale": the legacy map walk versus the levelized
// engine at 1 and 4 workers, clean and with 1% of nets noise-annotated,
// for 10³–10⁵ gates, plus the backward pass on the noisy Result and, from
// 10⁴ gates, the graph compile alone at 1 and 4 workers. A noisy row far
// above its clean row means noise set-up has stopped being linear in the
// design size.
func BenchmarkMesh(b *testing.B) {
	for _, gates := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("reference/gates=%d", gates), func(b *testing.B) {
			benchMesh(b, "reference", gates, 1, 0)
		})
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("levelized/gates=%d/workers=%d", gates, workers), func(b *testing.B) {
				benchMesh(b, "levelized", gates, workers, 0)
			})
			b.Run(fmt.Sprintf("noisy/gates=%d/workers=%d", gates, workers), func(b *testing.B) {
				benchMesh(b, "levelized", gates, workers, 0.01)
			})
			if gates >= 10000 {
				b.Run(fmt.Sprintf("compile/gates=%d/workers=%d", gates, workers), func(b *testing.B) {
					benchMesh(b, "compile", gates, workers, 0)
				})
			}
		}
		b.Run(fmt.Sprintf("required/gates=%d", gates), func(b *testing.B) {
			benchMesh(b, "required", gates, 1, 0.01)
		})
	}
}
