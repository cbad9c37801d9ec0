package main

import (
	"runtime"
	"testing"
)

// TestMeasureSpiceMicroCountsTransients: spice-micro runs bare Simulator.Run
// transients outside the sweep engine, so its case count must come from
// the solver's own transient counter — one per gate-replay run. On amd64
// the solver's work is pinned too: exactly 100,320 Newton iterations, so a
// change that makes the bare solver iterate more fails here.
func TestMeasureSpiceMicroCountsTransients(t *testing.T) {
	w, err := findWorkload("spice-micro")
	if err != nil {
		t.Fatal(err)
	}
	r, err := measure(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cases != 60 {
		t.Errorf("cases = %d, want 60", r.Cases)
	}
	if r.CasesPerSec <= 0 {
		t.Errorf("cases_per_sec = %g, want > 0", r.CasesPerSec)
	}
	if runtime.GOARCH != "amd64" {
		t.Logf("Newton iterations are pinned for amd64; not checked on %s", runtime.GOARCH)
		return
	}
	if r.NewtonIterations != 100320 {
		t.Errorf("Newton iterations = %d, want 100320", r.NewtonIterations)
	}
}
