package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"noisewave/internal/faultinject"
	"noisewave/internal/telemetry"
)

// TestChaosWorkerPanicQuarantines: injected worker panics are recovered —
// the process never crashes — and with KeepGoing the affected cases are
// quarantined with a panic-tagged failure record while every other case
// completes. Each panic rebuilds its worker's state through the factory
// before the worker's next case.
func TestChaosWorkerPanicQuarantines(t *testing.T) {
	const n, workers = 24, 4
	inj := faultinject.New(faultinject.Config{Seed: 3, PanicEvery: 5, PanicMax: 2})
	reg := telemetry.New()
	var builds atomic.Int64
	results, completed, report, err := RunPartial(context.Background(), n,
		Options{Workers: workers, KeepGoing: true, Inject: inj, Telemetry: reg},
		func(int) (struct{}, error) { builds.Add(1); return struct{}{}, nil },
		func(ctx context.Context, i int, _ struct{}) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatalf("KeepGoing sweep errored: %v", err)
	}
	if got := report.Quarantined(); got != 2 {
		t.Fatalf("quarantined %d cases, want 2: %v", got, report)
	}
	for _, f := range report.Failures {
		if !f.Panicked {
			t.Errorf("quarantined case %d not marked Panicked: %v", f.Index, f)
		}
		if len(f.Attempts) == 0 {
			t.Errorf("case %d has an empty attempt log", f.Index)
		}
		if completed[f.Index] {
			t.Errorf("quarantined case %d also marked completed", f.Index)
		}
	}
	nDone := 0
	for i, ok := range completed {
		if ok {
			nDone++
			if results[i] != i*i {
				t.Errorf("results[%d] = %d, want %d", i, results[i], i*i)
			}
		}
	}
	if nDone != n-2 {
		t.Errorf("%d cases completed, want %d", nDone, n-2)
	}
	snap := reg.Snapshot()
	if snap.Counters["sweep.worker_panics"] != 2 {
		t.Errorf("sweep.worker_panics = %d, want 2", snap.Counters["sweep.worker_panics"])
	}
	if snap.Counters["sweep.cases_quarantined"] != 2 {
		t.Errorf("sweep.cases_quarantined = %d, want 2", snap.Counters["sweep.cases_quarantined"])
	}
	if got := builds.Load(); got != workers+2 {
		t.Errorf("worker factory ran %d times, want %d (%d workers + 2 rebuilds after the panics)",
			got, workers+2, workers)
	}
}

// TestChaosStallTimeoutQuarantines: an injected stall trips the per-case
// deadline; the case is quarantined as a timeout (matching ErrCaseTimeout,
// NOT telemetry.ErrCanceled) and the sweep still completes the rest
// promptly.
func TestChaosStallTimeoutQuarantines(t *testing.T) {
	const n = 8
	inj := faultinject.New(faultinject.Config{StallEvery: 1, StallMax: 1, StallFor: time.Hour})
	start := time.Now()
	_, completed, report, err := RunPartial(context.Background(), n,
		Options{Workers: 2, KeepGoing: true, CaseTimeout: 50 * time.Millisecond, Inject: inj}, noState,
		func(ctx context.Context, i int, _ struct{}) (int, error) {
			if ctx.Err() != nil {
				return 0, telemetry.Canceled(ctx, "case %d interrupted", i)
			}
			return i, nil
		})
	if err != nil {
		t.Fatalf("KeepGoing sweep errored: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled sweep took %v; deadline not enforced", elapsed)
	}
	if report.Quarantined() != 1 {
		t.Fatalf("quarantined %d cases, want 1: %v", report.Quarantined(), report)
	}
	f := report.Failures[0]
	if !f.TimedOut {
		t.Errorf("stalled case not marked TimedOut: %v", f)
	}
	if !errors.Is(f.Err, ErrCaseTimeout) {
		t.Errorf("failure %v does not match ErrCaseTimeout", f.Err)
	}
	if errors.Is(f.Err, telemetry.ErrCanceled) {
		t.Error("case timeout masquerades as sweep cancellation")
	}
	nDone := 0
	for _, ok := range completed {
		if ok {
			nDone++
		}
	}
	if nDone != n-1 {
		t.Errorf("%d cases completed, want %d", nDone, n-1)
	}
}

// TestCaseTimeoutAbortsWithoutKeepGoing: without KeepGoing a timed-out
// case stops the sweep with ErrCaseTimeout — still distinct from a
// cancellation — and the completed subset is retained.
func TestCaseTimeoutAbortsWithoutKeepGoing(t *testing.T) {
	_, completed, report, err := RunPartial(context.Background(), 6,
		Options{Workers: 1, CaseTimeout: 30 * time.Millisecond}, noState,
		func(ctx context.Context, i int, _ struct{}) (int, error) {
			if i == 2 {
				<-ctx.Done()
				return 0, telemetry.Canceled(ctx, "case %d interrupted", i)
			}
			return i, nil
		})
	if !errors.Is(err, ErrCaseTimeout) {
		t.Fatalf("err = %v, want ErrCaseTimeout", err)
	}
	if errors.Is(err, telemetry.ErrCanceled) {
		t.Error("timeout error masquerades as cancellation")
	}
	if !completed[0] || !completed[1] || completed[2] {
		t.Errorf("completed = %v, want prefix [0,1]", completed)
	}
	if f, ok := report.Case(2); !ok || !f.TimedOut {
		t.Errorf("report does not name timed-out case 2: %v", report)
	}
}

// TestKeepGoingCompletesRemaining: plain case errors are quarantined and
// every other case still runs; progress counts quarantined cases so the
// bar reaches n.
func TestKeepGoingCompletesRemaining(t *testing.T) {
	const n = 15
	boom := errors.New("boom")
	var lastDone atomic.Int64
	results, completed, report, err := RunPartial(context.Background(), n,
		Options{Workers: 3, KeepGoing: true, Progress: func(done, total int) { lastDone.Store(int64(done)) }},
		noState,
		func(ctx context.Context, i int, _ struct{}) (int, error) {
			if i%5 == 0 {
				return 0, fmt.Errorf("case %d: %w", i, boom)
			}
			return i + 1, nil
		})
	if err != nil {
		t.Fatalf("KeepGoing sweep errored: %v", err)
	}
	if report.Quarantined() != 3 {
		t.Fatalf("quarantined %d, want 3: %v", report.Quarantined(), report)
	}
	for _, idx := range []int{0, 5, 10} {
		f, ok := report.Case(idx)
		if !ok || !errors.Is(f.Err, boom) {
			t.Errorf("report missing case %d: %v", idx, report)
		}
	}
	for i := 0; i < n; i++ {
		if i%5 == 0 {
			if completed[i] {
				t.Errorf("failing case %d marked completed", i)
			}
			continue
		}
		if !completed[i] || results[i] != i+1 {
			t.Errorf("case %d: completed=%v r=%d", i, completed[i], results[i])
		}
	}
	if lastDone.Load() != n {
		t.Errorf("final progress done=%d, want %d (quarantined cases count)", lastDone.Load(), n)
	}
}

// TestSequentialKeepGoingPanic: a one-worker pool quarantines a panicking
// case, rebuilds its worker state and runs the rest in order.
func TestSequentialKeepGoingPanic(t *testing.T) {
	builds := 0
	results, completed, report, err := RunPartial(context.Background(), 5,
		Options{Workers: 1, KeepGoing: true},
		func(int) (int, error) { builds++; return 0, nil },
		func(ctx context.Context, i int, _ int) (int, error) {
			if i == 1 {
				panic("boom")
			}
			return i * 10, nil
		})
	if err != nil {
		t.Fatalf("sweep errored: %v", err)
	}
	if report.Quarantined() != 1 || !report.Failures[0].Panicked {
		t.Fatalf("report = %v, want one panicked quarantine", report)
	}
	if builds != 2 {
		t.Errorf("factory ran %d times, want 2 (initial + rebuild)", builds)
	}
	for _, i := range []int{0, 2, 3, 4} {
		if !completed[i] || results[i] != i*10 {
			t.Errorf("case %d lost: completed=%v r=%d", i, completed[i], results[i])
		}
	}
}

// TestChaosAllWorkersLost: when every worker dies unrecoverably (panic and
// the factory cannot rebuild), the sweep returns ErrWorkersLost instead of
// deadlocking, and the report counts the lost workers.
func TestChaosAllWorkersLost(t *testing.T) {
	var builds atomic.Int64
	_, _, report, err := RunPartial(context.Background(), 12,
		Options{Workers: 2, KeepGoing: true},
		func(w int) (int, error) {
			if builds.Add(1) > 2 {
				return 0, errors.New("allocator down")
			}
			return w, nil
		},
		func(ctx context.Context, i int, _ int) (int, error) { panic("always") })
	if !errors.Is(err, ErrWorkersLost) {
		t.Fatalf("err = %v, want ErrWorkersLost", err)
	}
	if report == nil || report.WorkersLost != 2 {
		t.Fatalf("report = %v, want 2 workers lost", report)
	}
}

// TestGaugesResetAndFinalProgressOnError: an aborting sweep must leave the
// pool/queue gauges at zero and emit one final serialized Progress call so
// displays can settle.
func TestGaugesResetAndFinalProgressOnError(t *testing.T) {
	reg := telemetry.New()
	type call struct{ done, total int }
	var calls []call
	_, completed, _, err := RunPartial(context.Background(), 16,
		Options{Workers: 2, Telemetry: reg, Progress: func(done, total int) {
			calls = append(calls, call{done, total}) // serialized by the sweep
		}}, noState,
		func(ctx context.Context, i int, _ struct{}) (int, error) {
			if i == 4 {
				return 0, errors.New("boom")
			}
			return i, nil
		})
	if err == nil {
		t.Fatal("expected case error")
	}
	snap := reg.Snapshot()
	if snap.Gauges["sweep.pool_size"] != 0 || snap.Gauges["sweep.queue_depth"] != 0 {
		t.Errorf("gauges not reset on error exit: pool=%g queue=%g",
			snap.Gauges["sweep.pool_size"], snap.Gauges["sweep.queue_depth"])
	}
	if len(calls) == 0 {
		t.Fatal("no final progress call on early exit")
	}
	nDone := 0
	for _, ok := range completed {
		if ok {
			nDone++
		}
	}
	last := calls[len(calls)-1]
	if last.done != nDone || last.total != 16 {
		t.Errorf("final progress (%d,%d), want (%d,16)", last.done, last.total, nDone)
	}

	// Same contract when a one-worker pool is canceled early (the
	// historical stale-gauge bug).
	reg2 := telemetry.New()
	ctx, cancel := context.WithCancel(context.Background())
	_, _, _, err = RunPartial(ctx, 10, Options{Workers: 1, Telemetry: reg2}, noState,
		func(ctx context.Context, i int, _ struct{}) (int, error) {
			if i == 3 {
				cancel()
			}
			return i, nil
		})
	if !errors.Is(err, telemetry.ErrCanceled) {
		t.Fatalf("err = %v, want cancellation", err)
	}
	snap2 := reg2.Snapshot()
	if snap2.Gauges["sweep.pool_size"] != 0 || snap2.Gauges["sweep.queue_depth"] != 0 {
		t.Errorf("one-worker gauges not reset on cancel: pool=%g queue=%g",
			snap2.Gauges["sweep.pool_size"], snap2.Gauges["sweep.queue_depth"])
	}
}

// TestFailureReportString: the report renders the case index,
// classification and attempt count.
func TestFailureReportString(t *testing.T) {
	r := &FailureReport{Total: 10, Failures: []CaseFailure{
		{Index: 4, Err: errors.New("boom"), TimedOut: true, Attempts: []string{"attempt 1/1: timeout"}},
	}, WorkersLost: 1}
	s := r.String()
	for _, want := range []string{"1/10", "case 4", "timeout", "1 worker(s) lost"} {
		if !strings.Contains(s, want) {
			t.Errorf("report %q missing %q", s, want)
		}
	}
	var nilReport *FailureReport
	if nilReport.Quarantined() != 0 {
		t.Error("nil report not nil-safe")
	}
	if _, ok := nilReport.Case(0); ok {
		t.Error("nil report claims a case")
	}
}
