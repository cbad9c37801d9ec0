package spice

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"noisewave/internal/circuit"
	"noisewave/internal/device"
	"noisewave/internal/faultinject"
	"noisewave/internal/telemetry"
	"noisewave/internal/wave"
)

// The recovery tests reuse rcCircuit from telemetry_test.go.

// inverterCircuit builds a nonlinear testbench (inverter driven by a ramp).
func inverterCircuit(tech device.Tech) *circuit.Circuit {
	ckt := circuit.New()
	in := ckt.Node("in")
	out := ckt.Node("out")
	vdd := ckt.Node("vdd")
	ckt.AddVSource("vdd", vdd, circuit.Ground, circuit.DCSource(tech.Vdd))
	ckt.AddVSource("vin", in, circuit.Ground,
		circuit.SlewRamp(0.2e-9, 150e-12, tech.Vdd, wave.Rising))
	ckt.AddInverter("u1", tech, 4, in, out, vdd)
	return ckt
}

// TestChaosNewtonDivergenceRecovers: a capped dose of injected Newton
// divergence is absorbed by the ladder — the run completes, the report
// shows recovery activity, and the waveform still matches the analytic RC
// response.
func TestChaosNewtonDivergenceRecovers(t *testing.T) {
	// Every attempt of the early steps diverges until the cap is spent:
	// the halving loop burns all 16 attempts, then the ladder's gmin ramp
	// or BE fallback gets a post-cap (clean) solve and recovers the step.
	inj := faultinject.New(faultinject.Config{NewtonEvery: 1, NewtonMax: 17})
	reg := telemetry.New()
	sim := New(rcCircuit(), Options{Step: 5e-12, Inject: inj, Telemetry: reg})
	res, err := sim.Run(context.Background(), 0, 5e-9)
	if err != nil {
		t.Fatalf("Run with capped divergence injection: %v", err)
	}
	if !res.Recovery.Recovered() {
		t.Fatalf("recovery report shows no ladder activity: %v", res.Recovery)
	}
	if res.Recovery.BudgetUsed == 0 || res.Recovery.Exhausted {
		t.Errorf("unexpected report: %v", res.Recovery)
	}
	w, err := res.Waveform("out")
	if err != nil {
		t.Fatalf("Waveform: %v", err)
	}
	want := 1 - math.Exp(-(2e-9-1e-12)/1e-9)
	if got := w.At(2e-9); math.Abs(got-want) > 0.02 {
		t.Errorf("recovered run drifted: v(2ns)=%.4f want %.4f", got, want)
	}
	snap := reg.Snapshot()
	if snap.Counters["spice.recovery.gmin_ramps"]+snap.Counters["spice.recovery.be_fallbacks"] == 0 {
		t.Error("recovery rung counters not published to telemetry")
	}
}

// TestChaosNewtonDivergenceUnrecoverable: uncapped divergence defeats
// every rung; the run fails with an error matching ErrNewton that names
// the ladder, and the report is marked exhausted — the process never
// panics and the recorded prefix is retained.
func TestChaosNewtonDivergenceUnrecoverable(t *testing.T) {
	inj := faultinject.New(faultinject.Config{NewtonEvery: 1})
	sim := New(rcCircuit(), Options{Step: 5e-12, Inject: inj})
	res, err := sim.Run(context.Background(), 0, 5e-9)
	if err == nil {
		t.Fatal("uncapped divergence injection did not fail the run")
	}
	if !errors.Is(err, ErrNewton) {
		t.Errorf("error %v does not match ErrNewton", err)
	}
	if !strings.Contains(err.Error(), "gmin-ramp") || !strings.Contains(err.Error(), "BE-fallback") {
		t.Errorf("error %q does not name the rungs reached", err)
	}
	if res == nil || !res.Recovery.Exhausted {
		t.Fatalf("result/report not surfaced on exhaustion: %+v", res)
	}
	if res.Steps() == 0 {
		t.Error("completed prefix discarded on exhaustion")
	}
}

// TestChaosNaNPoisonRecovers: injected NaN poisoning of converged
// solutions is rejected as non-finite (never recorded) and the run
// completes; the non-finite rejections are accounted in the report.
func TestChaosNaNPoisonRecovers(t *testing.T) {
	inj := faultinject.New(faultinject.Config{NaNEvery: 1, NaNMax: 17})
	sim := New(rcCircuit(), Options{Step: 5e-12, Inject: inj})
	res, err := sim.Run(context.Background(), 0, 5e-9)
	if err != nil {
		t.Fatalf("Run with capped NaN injection: %v", err)
	}
	if res.Recovery.NonFinite == 0 {
		t.Errorf("report shows no non-finite rejections: %v", res.Recovery)
	}
	w, err := res.Waveform("out")
	if err != nil {
		t.Fatalf("Waveform after NaN injection: %v", err)
	}
	for i, v := range w.V {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("poisoned sample leaked into the waveform: v[%d]=%g", i, v)
		}
	}
}

// TestChaosNaNPoisonUnrecoverable: uncapped poisoning fails the run with a
// typed error instead of producing a garbage waveform.
func TestChaosNaNPoisonUnrecoverable(t *testing.T) {
	inj := faultinject.New(faultinject.Config{NaNEvery: 1})
	sim := New(rcCircuit(), Options{Step: 5e-12, Inject: inj})
	_, err := sim.Run(context.Background(), 0, 5e-9)
	if err == nil {
		t.Fatal("uncapped NaN injection did not fail the run")
	}
	if !errors.Is(err, ErrNewton) {
		t.Errorf("error %v does not match ErrNewton", err)
	}
	if !errors.Is(err, ErrNonFinite) {
		t.Errorf("error %v does not preserve the non-finite cause", err)
	}
}

// TestChaosNonlinearRecovery: the ladder also recovers the nonlinear
// (inverter) testbench, and the recovered output still switches rail to
// rail.
func TestChaosNonlinearRecovery(t *testing.T) {
	tech := device.Default130()
	inj := faultinject.New(faultinject.Config{Seed: 7, NewtonEvery: 25, NewtonMax: 40})
	sim := New(inverterCircuit(tech), Options{Step: 1e-12, Inject: inj})
	res, err := sim.Run(context.Background(), 0, 1.2e-9)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v, _ := res.final("out"); v > 0.1 {
		t.Errorf("inverter output %.3f, want low (input rose)", v)
	}
}

// TestRecoveryBudgetExhaustion: with a budget of 1, the second hard step
// fails the run and reports exhaustion with the budget spent.
func TestRecoveryBudgetExhaustion(t *testing.T) {
	// Persistent divergence eats the budget on the very first step's
	// ladder walk (ladder solves also diverge), so even budget 1 runs
	// straight to exhaustion.
	inj := faultinject.New(faultinject.Config{NewtonEvery: 1})
	sim := New(rcCircuit(), Options{Step: 5e-12, Inject: inj, recoveryBudget: 1})
	res, err := sim.Run(context.Background(), 0, 5e-9)
	if err == nil {
		t.Fatal("expected exhaustion")
	}
	if res.Recovery.BudgetUsed != 1 || res.Recovery.Budget != 1 {
		t.Errorf("budget accounting: %v", res.Recovery)
	}
}

// TestRecoveryDisabled: a negative budget restores the pre-ladder
// behavior — first unrecoverable step fails the run without escalation.
func TestRecoveryDisabled(t *testing.T) {
	inj := faultinject.New(faultinject.Config{NewtonEvery: 1, NewtonMax: 17})
	sim := New(rcCircuit(), Options{Step: 5e-12, Inject: inj, recoveryBudget: -1})
	res, err := sim.Run(context.Background(), 0, 5e-9)
	if err == nil {
		t.Fatal("disabled ladder still recovered the run")
	}
	if !errors.Is(err, ErrNewton) {
		t.Errorf("error %v does not match ErrNewton", err)
	}
	if res.Recovery.BudgetUsed != 0 {
		t.Errorf("disabled ladder consumed budget: %v", res.Recovery)
	}
}

// TestChaosStallHonorsRunContext: an injected stall inside the transient
// loop returns promptly when the run's context is already done, and the
// run reports a cancellation.
func TestChaosStallHonorsRunContext(t *testing.T) {
	inj := faultinject.New(faultinject.Config{StallEvery: 1, StallMax: 1, StallFor: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sim := New(rcCircuit(), Options{Step: 5e-12, Inject: inj})
	_, err := sim.Run(ctx, 0, 5e-9)
	if err == nil || !errors.Is(err, telemetry.ErrCanceled) {
		t.Fatalf("err = %v, want cancellation", err)
	}
}

// TestWaveformRejectsNonFiniteSamples: a Result carrying a NaN sample (as
// from a probe of a node name that never existed) surfaces
// wave.ErrBadSamples from Waveform, with the node named.
func TestWaveformRejectsNonFiniteSamples(t *testing.T) {
	sim := New(rcCircuit(), Options{Step: 1e-11, Probes: []string{"no_such_node"}})
	res, err := sim.Run(context.Background(), 0, 1e-9)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	_, err = res.Waveform("no_such_node")
	if err == nil {
		t.Fatal("Waveform accepted NaN samples")
	}
	if !errors.Is(err, wave.ErrBadSamples) {
		t.Errorf("error %v does not match wave.ErrBadSamples", err)
	}
	if !strings.Contains(err.Error(), "no_such_node") {
		t.Errorf("error %q does not name the node", err)
	}
}

// TestRecoveryReportAbsorb: Absorb accumulates counters and sticks the
// Exhausted flag.
func TestRecoveryReportAbsorb(t *testing.T) {
	var r RecoveryReport
	r.Absorb(RecoveryReport{StepCuts: 1, GminRamps: 2, BEFallbacks: 3, NonFinite: 4, BudgetUsed: 5})
	r.Absorb(RecoveryReport{StepCuts: 1, Exhausted: true})
	if r.StepCuts != 2 || r.GminRamps != 2 || r.BEFallbacks != 3 || r.NonFinite != 4 || r.BudgetUsed != 5 || !r.Exhausted {
		t.Errorf("absorbed report: %v", r)
	}
	if !r.Recovered() {
		t.Error("Recovered() = false with ladder counters set")
	}
}
