package sta

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"noisewave/internal/eqwave"
	"noisewave/internal/liberty"
	"noisewave/internal/netlist"
	"noisewave/internal/wave"
)

// flatTable returns a constant NLDM table (delay or transition d).
func flatTable(d float64) *liberty.Table2D {
	return &liberty.Table2D{
		Index1: []float64{10e-12, 500e-12},
		Index2: []float64{1e-15, 100e-15},
		Values: [][]float64{{d, d}, {d, d}},
	}
}

// loadScaledTable returns delay = base + k·load.
func loadScaledTable(base, k float64) *liberty.Table2D {
	mk := func(load float64) float64 { return base + k*load }
	return &liberty.Table2D{
		Index1: []float64{10e-12, 500e-12},
		Index2: []float64{1e-15, 100e-15},
		Values: [][]float64{
			{mk(1e-15), mk(100e-15)},
			{mk(1e-15), mk(100e-15)},
		},
	}
}

// testLib builds a tiny synthetic library: INV (negative unate, 10 ps) and
// BUF (positive unate, 20 ps), both with 30 ps output transitions.
func testLib() *liberty.Library {
	lib := liberty.NewLibrary("tl", 1.2)
	inv := &liberty.Cell{
		Name: "INV",
		Pins: []liberty.Pin{
			{Name: "A", Direction: "input", Cap: 2e-15},
			{Name: "Y", Direction: "output"},
		},
		Arcs: []liberty.Arc{{
			From: "A", To: "Y", Sense: liberty.NegativeUnate,
			CellRise: flatTable(10e-12), CellFall: flatTable(12e-12),
			RiseTransition: flatTable(30e-12), FallTransition: flatTable(28e-12),
		}},
	}
	buf := &liberty.Cell{
		Name: "BUF",
		Pins: []liberty.Pin{
			{Name: "A", Direction: "input", Cap: 3e-15},
			{Name: "Y", Direction: "output"},
		},
		Arcs: []liberty.Arc{{
			From: "A", To: "Y", Sense: liberty.PositiveUnate,
			CellRise: flatTable(20e-12), CellFall: flatTable(20e-12),
			RiseTransition: flatTable(30e-12), FallTransition: flatTable(30e-12),
		}},
	}
	nand := &liberty.Cell{
		Name: "NAND",
		Pins: []liberty.Pin{
			{Name: "A", Direction: "input", Cap: 2e-15},
			{Name: "B", Direction: "input", Cap: 2e-15},
			{Name: "Y", Direction: "output"},
		},
		Arcs: []liberty.Arc{
			{
				From: "A", To: "Y", Sense: liberty.NegativeUnate,
				CellRise: flatTable(15e-12), CellFall: flatTable(15e-12),
				RiseTransition: flatTable(30e-12), FallTransition: flatTable(30e-12),
			},
			{
				From: "B", To: "Y", Sense: liberty.NegativeUnate,
				CellRise: flatTable(18e-12), CellFall: flatTable(18e-12),
				RiseTransition: flatTable(30e-12), FallTransition: flatTable(30e-12),
			},
		},
	}
	lib.AddCell(inv)
	lib.AddCell(buf)
	lib.AddCell(nand)
	return lib
}

func mustParse(t *testing.T, src string) *netlist.Design {
	t.Helper()
	d, err := netlist.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("netlist: %v", err)
	}
	return d
}

func TestInverterChainArrival(t *testing.T) {
	d := mustParse(t, `
design chain
input a at=100ps slew=50ps
output y
gate u1 INV A=a Y=n1
gate u2 INV A=n1 Y=y
`)
	res, err := New(testLib(), d).RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	y := res.Nets["y"]
	// Rising output of u2 comes from falling n1 (12 ps fall through u1
	// from rising a... wait: a rising → n1 falling (12 ps) → y rising
	// (10 ps): arrival = 100 + 12 + 10 = 122 ps.
	if !y.Rise.Valid {
		t.Fatal("y rise invalid")
	}
	if got := y.Rise.Arrival; math.Abs(got-122e-12) > 1e-15 {
		t.Errorf("y rise arrival = %g, want 122 ps", got)
	}
	// Falling output: a falling → n1 rising (10) → y falling (12) = 122 ps.
	if got := y.Fall.Arrival; math.Abs(got-122e-12) > 1e-15 {
		t.Errorf("y fall arrival = %g, want 122 ps", got)
	}
}

func TestWorstInputWinsAtMultiInputGate(t *testing.T) {
	d := mustParse(t, `
design conv
input a at=0ps
input b at=100ps
output y
gate u1 NAND A=a B=b Y=y
`)
	res, err := New(testLib(), d).RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	y := res.Nets["y"]
	// Worst rise at y: via B (100 ps arrival + 18 ps) = 118 ps.
	if math.Abs(y.Rise.Arrival-118e-12) > 1e-15 {
		t.Errorf("y rise = %g, want 118 ps", y.Rise.Arrival)
	}
	if y.Rise.FromNet != "b" {
		t.Errorf("worst path via %s, want b", y.Rise.FromNet)
	}
}

func TestCriticalPathExtraction(t *testing.T) {
	d := mustParse(t, `
design path
input a
output y
gate u1 INV A=a Y=n1
gate u2 BUF A=n1 Y=n2
gate u3 INV A=n2 Y=y
`)
	res, err := New(testLib(), d).RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	net, edge, _, err := res.WorstOutput(d.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	path, err := res.CriticalPath(net, edge)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 4 {
		t.Fatalf("path length %d, want 4 (a,n1,n2,y)", len(path))
	}
	if path[0].Net != "a" || path[len(path)-1].Net != "y" {
		t.Errorf("path endpoints %s..%s", path[0].Net, path[len(path)-1].Net)
	}
	// Arrivals must be non-decreasing along the path.
	for i := 1; i < len(path); i++ {
		if path[i].Arrival < path[i-1].Arrival {
			t.Errorf("arrival decreases at step %d", i)
		}
	}
}

func TestCombinationalLoopDetected(t *testing.T) {
	d := mustParse(t, `
design loop
input a
output n2
gate u1 NAND A=a B=n2 Y=n1
gate u2 INV A=n1 Y=n2
`)
	_, err := New(testLib(), d).RunCtx(context.Background(), RunOptions{Workers: 1})
	if err == nil {
		t.Fatal("loop accepted")
	}
	if _, err := New(testLib(), d).RunCtx(context.Background(), RunOptions{Workers: 4}); !errors.Is(err, ErrCombinationalLoop) {
		t.Fatalf("loop at 4 workers: err = %v, want ErrCombinationalLoop", err)
	}
}

func TestLoadAffectsDelay(t *testing.T) {
	lib := testLib()
	// Replace INV's rise table with a load-dependent one.
	inv, _ := lib.Cell("INV")
	inv.Arcs[0].CellRise = loadScaledTable(5e-12, 1e-12/1e-15) // 1 ps per fF
	single := mustParse(t, `
design l1
input a
output y
gate u1 INV A=a Y=y
`)
	fanout := mustParse(t, `
design l4
input a
output y
gate u1 INV A=a Y=y
gate f1 INV A=y Y=z1
gate f2 INV A=y Y=z2
gate f3 INV A=y Y=z3
output z1
output z2
output z3
`)
	r1, err := New(lib, single).RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := New(lib, fanout).RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r4.Nets["y"].Rise.Arrival <= r1.Nets["y"].Rise.Arrival {
		t.Errorf("fanout load should slow the driver: %g vs %g",
			r4.Nets["y"].Rise.Arrival, r1.Nets["y"].Rise.Arrival)
	}
}

func TestNoiseAnnotationChangesArrival(t *testing.T) {
	d := mustParse(t, `
design noisy
input a
output y
gate u1 INV A=a Y=n1
gate u2 INV A=n1 Y=y
`)
	lib := testLib()

	// Baseline run.
	base, err := New(lib, d).RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Annotate n1 with a noisy rising edge arriving much later than the
	// propagated arrival.
	mk := func(t0, full float64) *wave.Waveform {
		return wave.FromFunc(func(tt float64) float64 {
			u := (tt - t0) / full
			if u < 0 {
				u = 0
			}
			if u > 1 {
				u = 1
			}
			return 1.2 * u
		}, 0, t0+full+0.5e-9, 800)
	}
	nl := mk(0.5e-9, 0.2e-9)
	noisy := mk(0.8e-9, 0.2e-9)
	out := wave.FromFunc(func(tt float64) float64 {
		return 1.2 - nl.At(tt-30e-12) // crude inverted+delayed copy
	}, 0, 1.5e-9, 800)

	timer := New(lib, d)
	timer.Annotate("n1", &NoiseAnnotation{
		Noisy: noisy, Noiseless: nl, NoiselessOut: out, Edge: wave.Rising,
	})
	res, err := timer.RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatalf("noise-aware run: %v", err)
	}
	// The rising edge at n1 now arrives near 0.9 ns, so y's fall must be
	// far later than the baseline.
	if res.Nets["y"].Fall.Arrival <= base.Nets["y"].Fall.Arrival+0.5e-9 {
		t.Errorf("annotation ignored: %g vs baseline %g",
			res.Nets["y"].Fall.Arrival, base.Nets["y"].Fall.Arrival)
	}
	// Technique choice is honored.
	if timer.Technique.Name() != "SGDP" {
		t.Errorf("default technique = %s", timer.Technique.Name())
	}
	timer.Technique = eqwave.P2{}
	if _, err := timer.RunCtx(context.Background(), RunOptions{Workers: 1}); err != nil {
		t.Errorf("P2 conversion failed: %v", err)
	}
}

func TestMissingCellAndDriverErrors(t *testing.T) {
	d := mustParse(t, `
design bad
input a
output y
gate u1 NOPE A=a Y=y
`)
	if _, err := New(testLib(), d).RunCtx(context.Background(), RunOptions{Workers: 1}); err == nil {
		t.Error("unknown cell accepted")
	}
	d2 := mustParse(t, `
design bad2
input a
output y
gate u1 INV A=floating Y=y
`)
	if _, err := New(testLib(), d2).RunCtx(context.Background(), RunOptions{Workers: 1}); err == nil {
		t.Error("undriven input accepted")
	}
}
