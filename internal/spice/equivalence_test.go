package spice

// Equivalence suite for the solver fast path: every circuit shape the
// reproduction simulates is run through both solver paths — the fast path
// (partitioned stamping, cached-LU modified Newton, sparse residual) and
// the historical slow path behind Options.NoFastPath — and the results are
// pinned against each other.
//
// The two paths are not bitwise identical: the fast path's modified Newton
// iterates against a stale Jacobian and takes a different sequence of
// damped updates, so both converge to the same fixed point but stop at
// (very slightly) different iterates. What IS required:
//
//   - identical accepted-step sequences (sample-for-sample equal Time
//     grids), because step acceptance is driven by Newton convergence and
//     LTE, and both paths must make the same control decisions;
//   - node voltages within a fraction of the Newton tolerance VTol at
//     every sample: each converged solve differs by sub-VTol amounts and
//     the integration history accumulates them, so the natural bound is
//     VTol-relative, not absolute (observed worst case ≈ 0.06·VTol; the
//     suite pins 0.25·VTol). A tightened-VTol case proves the gap scales
//     down with the tolerance — the fixed points genuinely coincide;
//   - identical recovery-ladder engagement under injected faults, because
//     the injector fires on solveTransient call ordinals and a fast/slow
//     pair that diverged in step control would consume different ordinals.

import (
	"context"
	"math"
	"testing"

	"noisewave/internal/circuit"
	"noisewave/internal/device"
	"noisewave/internal/faultinject"
	"noisewave/internal/wave"
)

// equivTol returns the per-sample voltage agreement the suite demands
// between the two solver paths for a run at the given options:
// |Δv| ≤ equivTol·max(1, |v|), set to a quarter of the effective Newton
// tolerance (4× margin over the observed worst case of ≈ 0.06·VTol).
func equivTol(opts Options) float64 {
	return opts.withDefaults().VTol / 4
}

// chainCircuit is the experiments' receiver shape with a switching input:
// a ×1 driver into a ×4 / ×16 fanout chain, rising ramp on the input.
func chainCircuit(tech device.Tech, edge wave.Edge) *circuit.Circuit {
	ckt := circuit.New()
	in := ckt.Node("in")
	mid := ckt.Node("mid")
	out := ckt.Node("out")
	vdd := ckt.Node("vdd")
	ckt.AddVSource("vdd", vdd, circuit.Ground, circuit.DCSource(tech.Vdd))
	ckt.AddVSource("vin", in, circuit.Ground,
		circuit.SlewRamp(0.2e-9, 150e-12, tech.Vdd, edge))
	ckt.AddInverter("u1", tech, 1, in, mid, vdd)
	ckt.AddInverter("u2", tech, 4, mid, out, vdd)
	ckt.AddInverter("u3", tech, 16, out, ckt.Node("out2"), vdd)
	return ckt
}

// coupledCircuit couples two driven RC lines through a bridge capacitor —
// the aggressor/victim shape of the crosstalk testbench, linear except for
// the victim's receiving inverter.
func coupledCircuit(tech device.Tech) *circuit.Circuit {
	ckt := circuit.New()
	va := ckt.Node("va")
	vb := ckt.Node("vb")
	fa := ckt.Node("fa")
	fb := ckt.Node("fb")
	vdd := ckt.Node("vdd")
	ckt.AddVSource("vdd", vdd, circuit.Ground, circuit.DCSource(tech.Vdd))
	ckt.AddVSource("vs_a", va, circuit.Ground,
		circuit.SlewRamp(0.2e-9, 100e-12, tech.Vdd, wave.Rising))
	ckt.AddVSource("vs_b", vb, circuit.Ground,
		circuit.SlewRamp(0.25e-9, 80e-12, tech.Vdd, wave.Falling))
	ckt.AddResistor(va, fa, 500)
	ckt.AddResistor(vb, fb, 700)
	ckt.AddCapacitor(fa, circuit.Ground, 20e-15)
	ckt.AddCapacitor(fb, circuit.Ground, 25e-15)
	ckt.AddCapacitor(fa, fb, 40e-15) // coupling bridge
	ckt.AddInverter("u_rx", tech, 4, fa, ckt.Node("out"), vdd)
	return ckt
}

// equivCases enumerates the suite's circuit × options grid.
func equivCases() []struct {
	name  string
	build func() *circuit.Circuit
	opts  Options
	stop  float64
} {
	tech := device.Default130()
	return []struct {
		name  string
		build func() *circuit.Circuit
		opts  Options
		stop  float64
	}{
		{
			name:  "rc-linear-trap",
			build: rcCircuit,
			opts:  Options{Step: 5e-12},
			stop:  5e-9,
		},
		{
			name:  "rc-linear-be",
			build: rcCircuit,
			opts:  Options{Step: 5e-12, method: backwardEuler},
			stop:  5e-9,
		},
		{
			name:  "inverter-trap",
			build: func() *circuit.Circuit { return inverterCircuit(tech) },
			opts:  Options{Step: 1e-12},
			stop:  1e-9,
		},
		{
			name:  "chain-rising-trap",
			build: func() *circuit.Circuit { return chainCircuit(tech, wave.Rising) },
			opts:  Options{Step: 1e-12},
			stop:  1.2e-9,
		},
		{
			name:  "chain-falling-be",
			build: func() *circuit.Circuit { return chainCircuit(tech, wave.Falling) },
			opts:  Options{Step: 1e-12, method: backwardEuler},
			stop:  1.2e-9,
		},
		{
			name:  "chain-rising-adaptive",
			build: func() *circuit.Circuit { return chainCircuit(tech, wave.Rising) },
			opts:  Options{Step: 1e-12, Adaptive: true},
			stop:  1.2e-9,
		},
		{
			// Tightening VTol 100× must tighten the fast/slow gap with it:
			// the paths share a fixed point, they don't just happen to land
			// near each other at the default tolerance.
			name:  "chain-rising-tight-vtol",
			build: func() *circuit.Circuit { return chainCircuit(tech, wave.Rising) },
			opts:  Options{Step: 1e-12, VTol: 1e-8},
			stop:  1.2e-9,
		},
		{
			name:  "coupled-trap",
			build: func() *circuit.Circuit { return coupledCircuit(tech) },
			opts:  Options{Step: 1e-12},
			stop:  1.5e-9,
		},
	}
}

// runEquivPair runs the same circuit/options through the fast and slow
// paths and returns both results.
func runEquivPair(t *testing.T, build func() *circuit.Circuit, opts Options, stop float64) (fast, slow *Result) {
	t.Helper()
	fastOpts := opts
	fastOpts.NoFastPath = false
	slowOpts := opts
	slowOpts.NoFastPath = true
	fast, err := New(build(), fastOpts).Run(context.Background(), 0, stop)
	if err != nil {
		t.Fatalf("fast-path Run: %v", err)
	}
	slow, err = New(build(), slowOpts).Run(context.Background(), 0, stop)
	if err != nil {
		t.Fatalf("slow-path Run: %v", err)
	}
	return fast, slow
}

// assertResultsEquivalent pins the fast result to the slow reference:
// identical time grids, per-sample voltages within tol.
func assertResultsEquivalent(t *testing.T, fast, slow *Result, tol float64) {
	t.Helper()
	if fast.Steps() != slow.Steps() {
		t.Fatalf("step counts diverge: fast %d, slow %d", fast.Steps(), slow.Steps())
	}
	for i := range slow.Time {
		if fast.Time[i] != slow.Time[i] {
			t.Fatalf("time grids diverge at sample %d: fast %.9g, slow %.9g",
				i, fast.Time[i], slow.Time[i])
		}
	}
	for _, node := range slow.names {
		vf, err := fast.Voltage(node)
		if err != nil {
			t.Fatalf("fast result lost node %q: %v", node, err)
		}
		vs, _ := slow.Voltage(node)
		worst, at := 0.0, 0
		for i := range vs {
			d := math.Abs(vf[i]-vs[i]) / math.Max(1, math.Abs(vs[i]))
			if d > worst {
				worst, at = d, i
			}
		}
		if worst > tol {
			t.Errorf("node %q: fast/slow diverge by %.3g at t=%.6g (tol %g)",
				node, worst, slow.Time[at], tol)
		}
	}
}

// TestFastPathEquivalence: transient equivalence over the full circuit ×
// method × step-control grid.
func TestFastPathEquivalence(t *testing.T) {
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			fast, slow := runEquivPair(t, tc.build, tc.opts, tc.stop)
			assertResultsEquivalent(t, fast, slow, equivTol(tc.opts))
		})
	}
}

// TestFastPathOperatingPointEquivalence: the DC solve through both paths
// agrees on every node, on both a linear and a nonlinear circuit.
func TestFastPathOperatingPointEquivalence(t *testing.T) {
	tech := device.Default130()
	for _, tc := range []struct {
		name  string
		build func() *circuit.Circuit
	}{
		{"rc", rcCircuit},
		{"chain", func() *circuit.Circuit { return chainCircuit(tech, wave.Rising) }},
		{"coupled", func() *circuit.Circuit { return coupledCircuit(tech) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Step: 1e-12}
			fastOpts, slowOpts := opts, opts
			slowOpts.NoFastPath = true
			fastOP, err := New(tc.build(), fastOpts).operatingPoint()
			if err != nil {
				t.Fatalf("fast operatingPoint: %v", err)
			}
			slowOP, err := New(tc.build(), slowOpts).operatingPoint()
			if err != nil {
				t.Fatalf("slow operatingPoint: %v", err)
			}
			if len(fastOP) != len(slowOP) {
				t.Fatalf("node sets diverge: fast %d, slow %d", len(fastOP), len(slowOP))
			}
			for node, vs := range slowOP {
				vf, ok := fastOP[node]
				if !ok {
					t.Fatalf("fast OP lost node %q", node)
				}
				if d := math.Abs(vf-vs) / math.Max(1, math.Abs(vs)); d > equivTol(opts) {
					t.Errorf("node %q: OP diverges by %.3g (fast %.12g, slow %.12g)",
						node, d, vf, vs)
				}
			}
		})
	}
}

// TestChaosFastPathRecoveryEquivalence: under identical injected fault
// schedules the two paths must engage the recovery ladder identically —
// same rung counts, same budget usage — and still agree on the waveforms.
// The injector fires on solveTransient call ordinals, so this doubles as a
// check that the paths make the same sequence of step-control decisions.
func TestChaosFastPathRecoveryEquivalence(t *testing.T) {
	tech := device.Default130()
	for _, tc := range []struct {
		name  string
		build func() *circuit.Circuit
		cfg   faultinject.Config
	}{
		{
			// Capped all-attempts divergence: burns the halving loop, then
			// the ladder recovers (rung 2/3).
			name:  "rc-divergence",
			build: rcCircuit,
			cfg:   faultinject.Config{NewtonEvery: 1, NewtonMax: 17},
		},
		{
			// Scattered divergence plus NaN poisoning on the nonlinear chain.
			name:  "chain-mixed",
			build: func() *circuit.Circuit { return chainCircuit(tech, wave.Rising) },
			cfg:   faultinject.Config{Seed: 7, NewtonEvery: 90, NaNEvery: 130},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Step: 1e-12}
			fastOpts, slowOpts := opts, opts
			fastOpts.Inject = faultinject.New(tc.cfg)
			slowOpts.Inject = faultinject.New(tc.cfg)
			slowOpts.NoFastPath = true
			fast, err := New(tc.build(), fastOpts).Run(context.Background(), 0, 1.2e-9)
			if err != nil {
				t.Fatalf("fast-path chaos Run: %v", err)
			}
			slow, err := New(tc.build(), slowOpts).Run(context.Background(), 0, 1.2e-9)
			if err != nil {
				t.Fatalf("slow-path chaos Run: %v", err)
			}
			if fast.Recovery != slow.Recovery {
				t.Fatalf("recovery reports diverge:\n fast %+v\n slow %+v",
					fast.Recovery, slow.Recovery)
			}
			if !fast.Recovery.Recovered() && fast.Recovery.StepCuts == 0 {
				t.Fatalf("injection was a no-op (report %+v); the test lost its teeth",
					fast.Recovery)
			}
			assertResultsEquivalent(t, fast, slow, equivTol(opts))
		})
	}
}
