package experiments

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"noisewave/internal/device"
	"noisewave/internal/telemetry"
	"noisewave/internal/xtalk"
)

// TestTable1CancelPartialStats: canceling mid-sweep must return the
// statistics over the completed cases together with an error matching
// telemetry.ErrCanceled — at both the sequential and the pooled worker
// count.
func TestTable1CancelPartialStats(t *testing.T) {
	cfg := xtalk.ConfigurationI(device.Default130())
	cfg.Step = 2e-12
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const cases, stopAfter = 8, 2
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			reg := telemetry.New()
			res, err := RunTable1(cfg, Table1Options{
				Cases: cases, Range: 1e-9, P: 35,
				SweepOptions: SweepOptions{
					Workers: workers, Ctx: ctx, Telemetry: reg,
					Progress: func(done, total int) {
						if done == stopAfter {
							cancel()
						}
					},
				},
			})
			if err == nil {
				t.Fatal("nil error from canceled sweep")
			}
			if !errors.Is(err, telemetry.ErrCanceled) {
				t.Fatalf("error %v does not match telemetry.ErrCanceled", err)
			}
			if res == nil {
				t.Fatal("nil result; want partial statistics")
			}
			if len(res.Stats) == 0 {
				t.Fatal("partial result carries no technique stats")
			}
			for _, s := range res.Stats {
				total := s.N + s.Failures
				if total < stopAfter || total >= cases {
					t.Errorf("technique %s scored on %d cases, want partial coverage in [%d, %d)",
						s.Name, total, stopAfter, cases)
				}
			}
			if got := len(res.Cases); got >= cases || got < stopAfter {
				t.Errorf("partial result holds %d case records, want in [%d, %d)",
					len(res.Cases), stopAfter, cases)
			}
			// The wall timer flushed exactly once despite the early return.
			if ts := reg.Snapshot().Timers["experiments.table1.seconds"]; ts.Count != 1 {
				t.Errorf("experiments.table1.seconds count = %d, want 1", ts.Count)
			}
		})
	}
}

// TestTable1TelemetrySnapshot: a completed sweep must leave a consistent
// end-to-end snapshot: spice counters from the transients, replay-cache
// outcomes, fit timers per technique and the sweep completion counter.
func TestTable1TelemetrySnapshot(t *testing.T) {
	cfg := xtalk.ConfigurationI(device.Default130())
	cfg.Step = 2e-12
	cases := sweepCases(t, 6)
	reg := telemetry.New()
	res, err := RunTable1(cfg, Table1Options{
		Cases: cases, Range: 1e-9, P: 35,
		SweepOptions: SweepOptions{Workers: 2, Telemetry: reg},
	})
	if err != nil {
		t.Fatalf("RunTable1: %v", err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["sweep.cases_completed"]; got != int64(cases) {
		t.Errorf("sweep.cases_completed = %d, want %d", got, cases)
	}
	// Every case runs one reference transient plus the replay transients;
	// the baseline adds more. A conservative lower bound suffices: the
	// counters must actually observe the pipeline.
	if got := snap.Counters["spice.transients"]; got < int64(cases) {
		t.Errorf("spice.transients = %d, want >= %d", got, cases)
	}
	if got := snap.Counters["spice.newton_iterations"]; got <= 0 {
		t.Errorf("spice.newton_iterations = %d, want > 0", got)
	}
	hits := snap.Counters["core.replay_hits"]
	misses := snap.Counters["core.replay_misses"]
	if misses <= 0 {
		t.Errorf("core.replay_misses = %d, want > 0", misses)
	}
	// Hits+misses = one replay lookup per scored technique per case.
	var lookups int64
	for _, s := range res.Stats {
		lookups += int64(s.N + s.Failures)
	}
	// Techniques that fail before emitting a ramp never reach the cache, so
	// the lookup count is bounded by, not equal to, the scored count.
	if hits+misses > lookups {
		t.Errorf("replay lookups %d exceed scored technique-cases %d", hits+misses, lookups)
	}
	for _, s := range res.Stats {
		ts := snap.Timers["eqwave.fit_seconds."+s.Name]
		if ts.Count != int64(s.N+s.Failures) {
			t.Errorf("fit timer for %s observed %d times, want %d", s.Name, ts.Count, s.N+s.Failures)
		}
	}
	if ts := snap.Timers["experiments.table1.seconds"]; ts.Count != 1 || ts.Sum <= 0 {
		t.Errorf("experiments.table1.seconds = %+v, want one positive observation", ts)
	}
}

// TestPushoutCancelPartial: the push-out distribution is computed over the
// completed cases when canceled mid-sweep.
func TestPushoutCancelPartial(t *testing.T) {
	cfg := xtalk.ConfigurationI(device.Default130())
	cfg.Step = 2e-12
	const cases, stopAfter = 8, 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := RunPushout(cfg, PushoutOptions{
		Cases: cases, Range: 1e-9,
		SweepOptions: SweepOptions{
			Workers: 2, Ctx: ctx,
			Progress: func(done, total int) {
				if done == stopAfter {
					cancel()
				}
			},
		},
	})
	if !errors.Is(err, telemetry.ErrCanceled) {
		t.Fatalf("error %v does not match telemetry.ErrCanceled", err)
	}
	if st == nil {
		t.Fatal("nil stats; want partial distribution")
	}
	if st.Cases < stopAfter || st.Cases >= cases {
		t.Errorf("partial distribution over %d cases, want in [%d, %d)", st.Cases, stopAfter, cases)
	}
	if len(st.Pushouts) != st.Cases {
		t.Errorf("Pushouts holds %d values, want %d", len(st.Pushouts), st.Cases)
	}
}

// TestPSweepCancel: canceling during the second P's accuracy sweep stops
// the P sweep with an error matching telemetry.ErrCanceled and keeps the
// row of the P value that finished.
func TestPSweepCancel(t *testing.T) {
	cfg := xtalk.ConfigurationI(device.Default130())
	cfg.Step = 2e-12
	const cases = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	rows, err := RunPSweep(cfg, []int{9, 35, 71}, cases, SweepOptions{
		Workers: 1, Ctx: ctx,
		Progress: func(done, total int) {
			if calls++; calls == cases+1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, telemetry.ErrCanceled) {
		t.Fatalf("error %v does not match telemetry.ErrCanceled", err)
	}
	if len(rows) != 1 || rows[0].P != 9 {
		t.Errorf("rows = %+v, want the P=9 row alone", rows)
	}
}
