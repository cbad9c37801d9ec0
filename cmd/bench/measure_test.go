package main

import "testing"

// TestMeasureSpiceMicroCountsTransients: spice-micro runs bare RunWindow
// transients outside the sweep engine, so its case count must come from
// the solver's own transient counter — one per gate-replay run.
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
}
