package sta

import (
	"context"
	"math"
	"strings"
	"testing"

	"noisewave/internal/charlib"
	"noisewave/internal/device"
	"noisewave/internal/netgen"
	"noisewave/internal/netlist"
	"noisewave/internal/telemetry"
	"noisewave/internal/wave"
)

// TestMeshNoisyPinned pins the sta-noisy benchmark's numbers in go test:
// the 10⁵-gate mesh (netgen seed 1, Elmore wires) with SGDP annotations on
// 1% of its nets (noise seed 1), as perfbench builds it. At 1 and 2
// workers the worst output arrival, the conversion count, the gates timed
// and the level count must hold exactly.
func TestMeshNoisyPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("times the 10⁵-gate noisy mesh")
	}
	const (
		worstArrival = 1.5685032040117206e-08
		conversions  = 754
		gates        = 100000
		levels       = 317
	)
	cfg := netgen.DefaultConfig(gates)
	cfg.Seed = 1
	tm := meshTimer(t, cfg, ElmoreWire)
	annotateSites(tm, netgen.NoiseSites(cfg, tm.Design, tm.Lib.Vdd, 0.01))
	for _, workers := range []int{1, 2} {
		reg := telemetry.New()
		res, err := tm.RunCtx(context.Background(), RunOptions{Workers: workers, Telemetry: reg})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		_, _, at, err := res.WorstOutput(tm.Design.Outputs)
		if err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		if math.Float64bits(at.Arrival) != math.Float64bits(worstArrival) {
			t.Errorf("%d workers: worst output arrival %.17g, want %.17g", workers, at.Arrival, worstArrival)
		}
		if got := snap.Counters["sta.noise_conversions"]; got != conversions {
			t.Errorf("%d workers: %d noise conversions, want %d", workers, got, conversions)
		}
		if got := snap.Counters["sta.gates_timed"]; got != gates {
			t.Errorf("%d workers: %d gates timed, want %d", workers, got, gates)
		}
		if got := snap.Gauges["sta.levels"]; got != levels {
			t.Errorf("%d workers: %v levels, want %d", workers, got, levels)
		}
	}
}

// TestMeshCleanPinned pins cmd/bench's sta-mesh workload in go test: the
// 10⁵-gate mesh (netgen seed 1, Elmore wires) timed without noise, as the
// workload times it. At 1 and 2 workers the worst output arrival, the
// gates timed and the level count must hold exactly.
func TestMeshCleanPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("times the 10⁵-gate mesh")
	}
	const (
		worstArrival = 1.5507282757636228e-08
		gates        = 100000
		levels       = 317
	)
	cfg := netgen.DefaultConfig(gates)
	cfg.Seed = 1
	tm := meshTimer(t, cfg, ElmoreWire)
	for _, workers := range []int{1, 2} {
		reg := telemetry.New()
		res, err := tm.RunCtx(context.Background(), RunOptions{Workers: workers, Telemetry: reg})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		_, _, at, err := res.WorstOutput(tm.Design.Outputs)
		if err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		if math.Float64bits(at.Arrival) != math.Float64bits(worstArrival) {
			t.Errorf("%d workers: worst output arrival %.17g, want %.17g", workers, at.Arrival, worstArrival)
		}
		if got := snap.Counters["sta.gates_timed"]; got != gates {
			t.Errorf("%d workers: %d gates timed, want %d", workers, got, gates)
		}
		if got := snap.Gauges["sta.levels"]; got != levels {
			t.Errorf("%d workers: %v levels, want %d", workers, got, levels)
		}
	}
}

// TestCriticalPathLongMesh: a valid path may be longer than any fixed
// step cap. An 8-wide, 96,000-gate mesh has 12,000 levels; its worst
// output's path must come back whole, 12,001 nets ending at a primary
// input.
func TestCriticalPathLongMesh(t *testing.T) {
	cfg := netgen.DefaultConfig(96000)
	cfg.Width = 8
	cfg.Seed = 1
	tm := meshTimer(t, cfg, IdealWire)
	res, err := tm.RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	net, edge, _, err := res.WorstOutput(tm.Design.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	path, err := res.CriticalPath(net, edge)
	if err != nil {
		t.Fatalf("CriticalPath(%s): %v", net, err)
	}
	if len(path) != 12001 {
		t.Errorf("path has %d nets, want 12001", len(path))
	}
	if first := path[0]; first.ViaGate != "" {
		t.Errorf("path starts at %s via %s, not at a primary input", first.Net, first.ViaGate)
	}
}

// TestReconstructRejectsZeroSlew: library reconstruction builds the
// noiseless ramp from the propagated transition, so a zero-slew primary
// input with a noisy-only annotation must fail with an error naming the
// net, the edge and the value — not with a crossing error from the NaN
// ramp it would otherwise build.
func TestReconstructRejectsZeroSlew(t *testing.T) {
	tech := device.Default130()
	opts := charlib.FastOptions()
	opts.WithWaves = true
	lib, err := charlib.Characterize(tech, []device.Cell{device.Inverter(tech, 1)}, opts)
	if err != nil {
		t.Fatalf("Characterize: %v", err)
	}
	d := mustParse(t, `
design zeroslew
input a slew=0ps
output y
gate u1 INVX1 A=a Y=y
`)
	tm := New(lib, d)
	noisy := wave.FromFunc(func(tt float64) float64 {
		return tech.Vdd * math.Max(0, math.Min(1, (tt-0.1e-9)/0.15e-9))
	}, 0, 1e-9, 200)
	tm.Annotate("a", &NoiseAnnotation{Noisy: noisy, Edge: wave.Rising})
	_, err = tm.RunCtx(context.Background(), RunOptions{Workers: 1})
	if err == nil {
		t.Fatal("a zero propagated transition was accepted")
	}
	for _, want := range []string{"noise annotation on a", "rise transition 0 s", "not finite and positive"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestSpilledNetsKeepErrorPrecedence: an invalid design can name more nets
// than it has primary inputs and gates, since its undriven fanins have no
// slot. compile must still report the first error in gate and pin order:
// a multi-driver collision wins over an undriven net, and otherwise the
// first undriven fanin is named.
func TestSpilledNetsKeepErrorPrecedence(t *testing.T) {
	lib := netgen.SyntheticLibrary()
	inv := func(name, in, out string) netlist.Gate {
		return netlist.Gate{Name: name, Cell: "INVX1", Pins: map[string]string{"A": in, "Y": out}}
	}
	for _, c := range []struct {
		name  string
		gates []netlist.Gate
		want  string
	}{
		// x and ghost have no driver; the second case drives n1 twice.
		{"undriven", []netlist.Gate{inv("g0", "x", "n0"), inv("g1", "n0", "n1"), inv("g2", "ghost", "n2")},
			"sta: net x (input of g0) has no driver"},
		{"multi-driver", []netlist.Gate{inv("g0", "x", "n0"), inv("g1", "n0", "n1"), inv("g2", "a", "n1")},
			"sta: net n1 driven by both g1 and g2"},
	} {
		d := &netlist.Design{Name: c.name, Inputs: []netlist.Port{{Name: "a", Slew: 50e-12}}, Gates: c.gates}
		for _, workers := range []int{1, 4} {
			_, err := compile(d, lib, workers)
			if err == nil || err.Error() != c.want {
				t.Errorf("%s at %d workers: error %v, want %q", c.name, workers, err, c.want)
			}
		}
	}
}

// TestEditedNetsAreUnknown: Result.Nets is the run's name index, and a
// caller may edit it. A replaced entry must make its name unknown to
// ComputeRequired — a constraint on it then binds to no net — never an
// out-of-range arena index.
func TestEditedNetsAreUnknown(t *testing.T) {
	d := mustParse(t, `
design edit
input a
output y
gate u1 INV A=a Y=n1
gate u2 INV A=n1 Y=y
`)
	tm := New(testLib(), d)
	res, err := tm.RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(testLib(), d).RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, replacement := range []*NetTiming{{}, other.Nets["y"], nil} {
		res.Nets["y"] = replacement
		req, err := tm.ComputeRequired(res, map[string]float64{"y": 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		if r := requiredAt(t, req, "a"); !math.IsInf(r[wave.Rising], 1) || !math.IsInf(r[wave.Falling], 1) {
			t.Errorf("replacement %p: a constraint on an edited name reached input a: %+v", replacement, r)
		}
		if _, ok := req.Slack("y", wave.Rising); ok {
			t.Errorf("replacement %p: the edited name y has a slack", replacement)
		}
		if rows := req.Report(); len(rows) != 0 {
			t.Errorf("replacement %p: slack rows for a constraint that binds to no net: %+v", replacement, rows)
		}
		if w, ok := req.WorstSlack(); ok {
			t.Errorf("replacement %p: worst slack %+v with no net constrained", replacement, w)
		}
	}
}
