package spice

import (
	"context"
	"testing"

	"noisewave/internal/circuit"
)

// TestRejectedStepKeepsBreakpointAlignment is the regression test for a
// step-control bug: breakpoint alignment used to be computed once per
// outer step, and a rejected attempt cleared the hit flag before halving.
// A retried, halved step that still lands on the breakpoint (within the
// 1e-21 s alignment tolerance) was then accepted with hitBP=false, so the
// post-breakpoint backward-Euler damping (beSteps = 2) was silently
// skipped and the source corner was integrated with undamped trapezoidal
// steps. Alignment is now re-evaluated on every attempt.
//
// The 1e-21 tolerance is absolute, so the scenario only arises when step
// sizes are within a few orders of magnitude of it: a zeptosecond-scale
// RC (tau = R·C = 1e-21 s) driven by a PWL corner at 6e-21 s, stepped at
// 1e-21 s. A forced rejection at t = 5e-21 halves the breakpoint-aligned
// step; the retry lands at 5.5e-21, within tolerance of the corner.
func TestRejectedStepKeepsBreakpointAlignment(t *testing.T) {
	const bp = 6e-21
	ckt := circuit.New()
	in := ckt.Node("in")
	out := ckt.Node("out")
	ckt.AddVSource("vin", in, circuit.Ground, circuit.PWL{
		T: []float64{0, bp}, V: []float64{0, 1},
	})
	ckt.AddResistor(in, out, 1e-3)
	ckt.AddCapacitor(out, circuit.Ground, 1e-18)

	sim := New(ckt, Options{Step: 1e-21, recordSteps: true})
	rejected := false
	sim.testForceReject = func(tt, h float64) bool {
		if !rejected && tt > 4.5e-21 {
			rejected = true
			return true
		}
		return false
	}

	res, err := sim.Run(context.Background(), 0, 10e-21)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rejected {
		t.Fatal("force-reject hook never fired; test setup is broken")
	}

	// Find the accepted step that survived the rejection.
	ri := -1
	for i, st := range res.trace {
		if st.Rejects > 0 {
			ri = i
			break
		}
	}
	if ri < 0 {
		t.Fatalf("no trace entry with rejects; trace: %+v", res.trace)
	}
	st := res.trace[ri]
	if st.Rejects != 1 {
		t.Errorf("rejected step retried %d times, want 1", st.Rejects)
	}
	// The halved retry lands at 5.5e-21, within the 1e-21 alignment
	// tolerance of the 6e-21 corner: it must still count as a breakpoint
	// hit so the damping kicks in.
	if st.T > bp+1e-21 {
		t.Fatalf("rejected step accepted at t=%.3g, expected at/before the %.3g breakpoint", st.T, bp)
	}
	if !st.HitBP {
		t.Errorf("step accepted at t=%.3g after rejection lost its breakpoint hit (HitBP=false)", st.T)
	}
	// The two steps after the breakpoint must be damped with backward
	// Euler, exactly as they are when no rejection occurs.
	for k := 1; k <= 2 && ri+k < len(res.trace); k++ {
		if got := res.trace[ri+k].Method; got != backwardEuler {
			t.Errorf("step %d after breakpoint used %v, want BE damping", k, got)
		}
	}
}

// TestStepTraceBaseline pins the trace in the no-rejection case: the step
// that lands on the breakpoint is flagged, and the two following steps are
// backward Euler. This is the behaviour the regression test above checks
// is preserved under rejection.
func TestStepTraceBaseline(t *testing.T) {
	ckt := circuit.New()
	in := ckt.Node("in")
	out := ckt.Node("out")
	ckt.AddVSource("vin", in, circuit.Ground, circuit.PWL{
		T: []float64{0, 3e-12}, V: []float64{0, 1},
	})
	ckt.AddResistor(in, out, 1e3)
	ckt.AddCapacitor(out, circuit.Ground, 1e-15)

	sim := New(ckt, Options{Step: 1e-12, recordSteps: true})
	res, err := sim.Run(context.Background(), 0, 10e-12)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	hit := -1
	for i, st := range res.trace {
		if st.HitBP {
			hit = i
			break
		}
	}
	if hit < 0 {
		t.Fatalf("no step hit the 3 ps breakpoint; trace: %+v", res.trace)
	}
	for k := 1; k <= 2; k++ {
		if got := res.trace[hit+k].Method; got != backwardEuler {
			t.Errorf("step %d after breakpoint used %v, want BE", k, got)
		}
	}
	for _, st := range res.trace {
		if st.Rejects != 0 {
			t.Errorf("unexpected rejection at t=%g", st.T)
		}
	}
}
