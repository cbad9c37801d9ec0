package spice

import (
	"context"
	"errors"
	"testing"
	"time"

	"noisewave/internal/circuit"
	"noisewave/internal/telemetry"
)

// rcCircuit builds the single-pole RC low-pass used by the telemetry tests.
func rcCircuit() *circuit.Circuit {
	ckt := circuit.New()
	in := ckt.Node("in")
	out := ckt.Node("out")
	ckt.AddVSource("vin", in, circuit.Ground, circuit.PWL{
		T: []float64{0, 1e-12}, V: []float64{0, 1},
	})
	ckt.AddResistor(in, out, 1e3)
	ckt.AddCapacitor(out, circuit.Ground, 1e-12)
	return ckt
}

// TestTransientTelemetry: one Run must flush one transient counter, a
// positive Newton-iteration and step-accept count, and a wall timer whose
// single observation is consistent with the measured wall clock.
func TestTransientTelemetry(t *testing.T) {
	reg := telemetry.New()
	sim := New(rcCircuit(), Options{Step: 5e-12, Telemetry: reg})
	wallStart := time.Now()
	if _, err := sim.Run(context.Background(), 0, 2e-9); err != nil {
		t.Fatalf("Run: %v", err)
	}
	wall := time.Since(wallStart).Seconds()

	snap := reg.Snapshot()
	if got := snap.Counters["spice.transients"]; got != 1 {
		t.Errorf("spice.transients = %d, want 1", got)
	}
	if got := snap.Counters["spice.newton_iterations"]; got <= 0 {
		t.Errorf("spice.newton_iterations = %d, want > 0", got)
	}
	accepts := snap.Counters["spice.steps_accepted"]
	if accepts <= 0 {
		t.Errorf("spice.steps_accepted = %d, want > 0", accepts)
	}
	// Fixed 5 ps steps over 2 ns: about 400 accepted steps.
	if accepts < 300 || accepts > 500 {
		t.Errorf("spice.steps_accepted = %d, want ~400 for fixed 5 ps steps over 2 ns", accepts)
	}
	if got := snap.Counters["spice.runs_canceled"]; got != 0 {
		t.Errorf("spice.runs_canceled = %d, want 0", got)
	}
	ts, ok := snap.Timers["spice.transient_seconds"]
	if !ok {
		t.Fatal("spice.transient_seconds timer missing from snapshot")
	}
	if ts.Count != 1 {
		t.Errorf("transient_seconds count = %d, want 1", ts.Count)
	}
	if ts.Sum <= 0 || ts.Sum > wall {
		t.Errorf("transient_seconds sum = %g, want in (0, %g]", ts.Sum, wall)
	}

	// A second run accumulates into the same counters.
	if _, err := sim.Run(context.Background(), 0, 2e-9); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if got := reg.Counter("spice.transients").Value(); got != 2 {
		t.Errorf("after two runs spice.transients = %d, want 2", got)
	}
}

// TestOperatingPointTelemetry: a standalone DC solve flushes under the
// op_solves/op_seconds names, not the transient names.
func TestOperatingPointTelemetry(t *testing.T) {
	reg := telemetry.New()
	sim := New(rcCircuit(), Options{Step: 5e-12, Telemetry: reg})
	if _, err := sim.operatingPoint(); err != nil {
		t.Fatalf("operatingPoint: %v", err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["spice.op_solves"]; got != 1 {
		t.Errorf("spice.op_solves = %d, want 1", got)
	}
	if got := snap.Counters["spice.transients"]; got != 0 {
		t.Errorf("spice.transients = %d, want 0 after a pure DC solve", got)
	}
	if got := snap.Counters["spice.newton_iterations"]; got <= 0 {
		t.Errorf("spice.newton_iterations = %d, want > 0", got)
	}
	if ts := snap.Timers["spice.op_seconds"]; ts.Count != 1 {
		t.Errorf("op_seconds count = %d, want 1", ts.Count)
	}
}

// TestForcedRejectionCounted: a step rejected through the test hook must
// show up in spice.steps_rejected while the run still completes.
func TestForcedRejectionCounted(t *testing.T) {
	reg := telemetry.New()
	sim := New(rcCircuit(), Options{Step: 5e-12, Telemetry: reg})
	rejected := false
	sim.testForceReject = func(tt, h float64) bool {
		if !rejected && tt > 0.5e-9 {
			rejected = true
			return true
		}
		return false
	}
	if _, err := sim.Run(context.Background(), 0, 1e-9); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rejected {
		t.Fatal("test hook never fired")
	}
	if got := reg.Counter("spice.steps_rejected").Value(); got != 1 {
		t.Errorf("spice.steps_rejected = %d, want 1", got)
	}
}

// TestTransientCancel: a canceled context stops the outer loop, returns the
// partial waveforms recorded so far, and the error matches both the
// library's ErrCanceled sentinel and the context's own cause.
func TestTransientCancel(t *testing.T) {
	reg := telemetry.New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before the first outer step
	sim := New(rcCircuit(), Options{Step: 5e-12, Telemetry: reg})
	res, err := sim.Run(ctx, 0, 2e-9)
	if err == nil {
		t.Fatal("Run returned nil error under a canceled context")
	}
	if !errors.Is(err, telemetry.ErrCanceled) {
		t.Errorf("error %v does not match telemetry.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not match context.Canceled", err)
	}
	if res == nil {
		t.Fatal("Run returned nil result; want the partial waveforms")
	}
	w, werr := res.Waveform("out")
	if werr != nil {
		t.Fatalf("partial result has no 'out' waveform: %v", werr)
	}
	// Only the initial record exists: the first step was never taken.
	if w.Len() != 1 {
		t.Errorf("partial waveform has %d samples, want 1 (the t = 0 record)", w.Len())
	}
	if got := reg.Counter("spice.runs_canceled").Value(); got != 1 {
		t.Errorf("spice.runs_canceled = %d, want 1", got)
	}
}

// TestTransientDeadline: a deadline mid-run leaves a truncated waveform and
// an error matching both ErrCanceled and context.DeadlineExceeded.
func TestTransientDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 1*time.Millisecond)
	defer cancel()
	// A long, finely-stepped run so the deadline reliably fires mid-loop.
	sim := New(rcCircuit(), Options{Step: 1e-12})
	res, err := sim.Run(ctx, 0, 1e-6)
	if err == nil {
		t.Skip("run finished before the deadline; machine too fast for this bound")
	}
	if !errors.Is(err, telemetry.ErrCanceled) {
		t.Errorf("error %v does not match telemetry.ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not match context.DeadlineExceeded", err)
	}
	if res == nil {
		t.Fatal("nil partial result")
	}
	w, werr := res.Waveform("out")
	if werr != nil {
		t.Fatalf("partial result: %v", werr)
	}
	if w.End() >= 1e-6 {
		t.Errorf("partial waveform reaches t=%g; expected truncation before Stop", w.End())
	}
}
