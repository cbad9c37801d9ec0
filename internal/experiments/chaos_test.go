package experiments

import (
	"testing"

	"noisewave/internal/core"
	"noisewave/internal/device"
	"noisewave/internal/faultinject"
	"noisewave/internal/telemetry"
	"noisewave/internal/xtalk"
)

// TestChaosTable1DegradedFallback: a case whose golden transient is
// unrecoverable (sustained injected divergence after a warm-up window,
// with the fire cap sized so the fallback replay itself stays clean) falls
// back to the P2 Γeff path: the case completes with Health degraded and an
// estimated arrival, is excluded from the statistics, and the run returns
// no error.
func TestChaosTable1DegradedFallback(t *testing.T) {
	cfg := xtalk.ConfigurationI(device.Default130())
	cfg.Step = 2e-12
	// NewtonAfter skips the noiseless reference (~1400 solves) and the
	// first ~1.1 k solves of the single case's golden transient, so the
	// failure lands well past the victim transition; NewtonMax 18 is
	// exactly enough to defeat one step's halving loop (16) plus both
	// ladder rungs (1 each), after which the injector is spent and the
	// fallback replay runs clean.
	inj := faultinject.New(faultinject.Config{NewtonEvery: 1, NewtonMax: 18, NewtonAfter: 2600})
	res, err := RunTable1(cfg, Table1Options{
		Cases: 1, Range: 1e-9, P: 35,
		SweepOptions: SweepOptions{Workers: 1, Inject: inj},
	})
	if err != nil {
		t.Fatalf("RunTable1 with degraded case: %v", err)
	}
	if inj.Fired(faultinject.NewtonDivergence) != 18 {
		t.Fatalf("injector fired %d divergences, want 18 (timing assumption broken)",
			inj.Fired(faultinject.NewtonDivergence))
	}
	if len(res.Cases) != 1 {
		t.Fatalf("want the degraded case retained, got %d cases", len(res.Cases))
	}
	c := res.Cases[0]
	if c.Health != core.HealthDegraded {
		t.Fatalf("case health = %v, want degraded", c.Health)
	}
	if res.Excluded != 1 {
		t.Errorf("Excluded = %d, want 1", res.Excluded)
	}
	if c.EstArrival < 0.3e-9 || c.EstArrival > 3e-9 {
		t.Errorf("degraded P2 arrival estimate %.3g s implausible", c.EstArrival)
	}
	for _, st := range res.Stats {
		if st.N != 0 {
			t.Errorf("technique %s scored N=%d on a sweep with no healthy cases", st.Name, st.N)
		}
	}
}

// TestChaosTable1KeepGoingQuarantine: injected worker panics quarantine
// their cases while the rest of the sweep completes and is scored; the
// failure report names the quarantined cases and the exclusion count is
// explicit.
func TestChaosTable1KeepGoingQuarantine(t *testing.T) {
	cfg := xtalk.ConfigurationI(device.Default130())
	cfg.Step = 2e-12
	const cases = 4
	inj := faultinject.New(faultinject.Config{PanicEvery: 1, PanicMax: 2})
	reg := telemetry.New()
	res, err := RunTable1(cfg, Table1Options{
		Cases: cases, Range: 1e-9, P: 35,
		SweepOptions: SweepOptions{Workers: 2, KeepGoing: true, Inject: inj, Telemetry: reg},
	})
	if err != nil {
		t.Fatalf("KeepGoing sweep errored: %v", err)
	}
	if res.Failures == nil || res.Failures.Quarantined() != 2 {
		t.Fatalf("failure report = %v, want 2 quarantined cases", res.Failures)
	}
	for _, f := range res.Failures.Failures {
		if !f.Panicked || len(f.Attempts) == 0 {
			t.Errorf("quarantined case %d lacks panic classification/attempt log: %v", f.Index, f)
		}
	}
	if res.Excluded != 2 {
		t.Errorf("Excluded = %d, want 2", res.Excluded)
	}
	if got := len(res.Cases); got != cases-2 {
		t.Fatalf("%d cases retained, want %d", got, cases-2)
	}
	// The surviving cases are scored normally.
	for _, st := range res.Stats {
		if st.N+st.Failures != cases-2 {
			t.Errorf("technique %s: N=%d failures=%d, want sum %d", st.Name, st.N, st.Failures, cases-2)
		}
	}
	if got := reg.Snapshot().Counters["sweep.cases_quarantined"]; got != 2 {
		t.Errorf("sweep.cases_quarantined = %d, want 2", got)
	}
}

// TestChaosPushoutKeepGoing: the pushout driver has the same quarantine
// semantics — the distribution simply covers the surviving cases.
func TestChaosPushoutKeepGoing(t *testing.T) {
	cfg := xtalk.ConfigurationI(device.Default130())
	cfg.Step = 2e-12
	inj := faultinject.New(faultinject.Config{PanicEvery: 1, PanicMax: 1})
	st, err := RunPushout(cfg, PushoutOptions{
		Cases: 4, Range: 1e-9,
		SweepOptions: SweepOptions{Workers: 2, KeepGoing: true, Inject: inj},
	})
	if err != nil {
		t.Fatalf("KeepGoing pushout errored: %v", err)
	}
	if st.Excluded != 1 || st.Failures.Quarantined() != 1 {
		t.Fatalf("Excluded=%d report=%v, want exactly 1 quarantined", st.Excluded, st.Failures)
	}
	if st.Cases != 3 || len(st.Pushouts) != 3 {
		t.Errorf("distribution over %d cases (%d pushouts), want 3", st.Cases, len(st.Pushouts))
	}
}

// TestChaosPSweepKeepGoingReportsFailures: a keep-going P sweep keeps each
// accuracy sweep's exclusion count and failure report on its row, as
// Table1Result does, so a row's Avg |err| never covers fewer cases
// silently.
func TestChaosPSweepKeepGoingReportsFailures(t *testing.T) {
	cfg := xtalk.ConfigurationI(device.Default130())
	cfg.Step = 2e-12
	inj := faultinject.New(faultinject.Config{PanicEvery: 1, PanicMax: 1})
	rows, err := RunPSweep(cfg, []int{9}, 3, SweepOptions{Workers: 2, KeepGoing: true, Inject: inj})
	if err != nil {
		t.Fatalf("KeepGoing P sweep errored: %v", err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %+v, want one", rows)
	}
	if r := rows[0]; r.Excluded != 1 || r.Failures.Quarantined() != 1 {
		t.Fatalf("P=%d row: Excluded=%d report=%v, want exactly 1 quarantined", r.P, r.Excluded, r.Failures)
	}
}
