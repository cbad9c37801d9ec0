package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"noisewave/internal/telemetry"
)

// TestRunPartialCancellation: at every worker count, canceling mid-sweep
// must surface the completed subset, flag exactly those indices, and return
// an error matching telemetry.ErrCanceled.
//
// The fifth case cancels. A case that starts after it waits for that
// cancel before returning: otherwise the canceling goroutine can be
// descheduled between counting its case and calling cancel while the
// other workers drain all 64 trivial cases, and the sweep completes.
func TestRunPartialCancellation(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n, stopAfter = 64, 5
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var done atomic.Int64
			results, completed, _, err := RunPartial(ctx, n, Options{Workers: workers}, noState,
				func(ctx context.Context, i int, _ struct{}) (int, error) {
					switch k := done.Add(1); {
					case k == stopAfter:
						cancel()
					case k > stopAfter:
						<-ctx.Done()
					}
					return i * i, nil
				})
			if err == nil {
				t.Fatal("nil error from canceled sweep")
			}
			if !errors.Is(err, telemetry.ErrCanceled) {
				t.Errorf("error %v does not match telemetry.ErrCanceled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("error %v does not match context.Canceled", err)
			}
			if len(results) != n || len(completed) != n {
				t.Fatalf("len(results)=%d len(completed)=%d, want %d", len(results), len(completed), n)
			}
			nDone := 0
			for i, ok := range completed {
				if ok {
					nDone++
					if results[i] != i*i {
						t.Errorf("completed case %d holds %d, want %d", i, results[i], i*i)
					}
				} else if results[i] != 0 {
					t.Errorf("incomplete case %d holds %d, want zero value", i, results[i])
				}
			}
			if nDone < stopAfter || nDone == n {
				t.Errorf("%d cases completed, want partial coverage in [%d, %d)", nDone, stopAfter, n)
			}
		})
	}
}

// TestOneWorkerCancellationPrefix: a one-worker pool completes the exact
// prefix before the cancellation point and starts no case after it, and
// sweep.cases_dispatched counts only the started cases. The dispatcher can
// still hand the worker the next index after the cancel, so the contract
// is checked over many runs.
func TestOneWorkerCancellationPrefix(t *testing.T) {
	const n, stopAfter, runs = 20, 5, 2000
	for run := 0; run < runs; run++ {
		ctx, cancel := context.WithCancel(context.Background())
		reg := telemetry.New()
		calls := 0
		results, completed, _, err := RunPartial(ctx, n, Options{Workers: 1, Telemetry: reg}, noState,
			func(ctx context.Context, i int, _ struct{}) (int, error) {
				calls++
				if calls == stopAfter {
					cancel()
				}
				return i + 100, nil
			})
		cancel()
		if !errors.Is(err, telemetry.ErrCanceled) {
			t.Fatalf("run %d: error %v does not match telemetry.ErrCanceled", run, err)
		}
		if calls != stopAfter {
			t.Fatalf("run %d: do ran %d times, want exactly %d", run, calls, stopAfter)
		}
		if got := reg.Snapshot().Counters["sweep.cases_dispatched"]; got != stopAfter {
			t.Fatalf("run %d: sweep.cases_dispatched = %d, want %d", run, got, stopAfter)
		}
		for i := 0; i < n; i++ {
			wantDone := i < stopAfter
			if completed[i] != wantDone {
				t.Fatalf("run %d: completed[%d] = %v, want %v", run, i, completed[i], wantDone)
			}
			if wantDone && results[i] != i+100 {
				t.Fatalf("run %d: results[%d] = %d, want %d", run, i, results[i], i+100)
			}
		}
	}
}

// TestSweepTelemetryComparable: a one-worker and a four-worker pool record
// the same completion counter and pool-size gauge semantics, so throughput
// derived from a snapshot is comparable across worker counts.
func TestSweepTelemetryComparable(t *testing.T) {
	const n = 24
	for _, tc := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"pool", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.New()
			_, _, _, err := RunPartial(context.Background(), n, Options{Workers: tc.workers, Telemetry: reg}, noState,
				func(ctx context.Context, i int, _ struct{}) (int, error) { return i, nil })
			if err != nil {
				t.Fatalf("sweep: %v", err)
			}
			snap := reg.Snapshot()
			if got := snap.Counters["sweep.cases_completed"]; got != n {
				t.Errorf("sweep.cases_completed = %d, want %d", got, n)
			}
			if got := snap.Counters["sweep.cases_dispatched"]; got != n {
				t.Errorf("sweep.cases_dispatched = %d, want %d", got, n)
			}
			// Both gauges are reset on exit: a post-sweep snapshot must
			// not claim a live pool or a pending queue.
			if got := snap.Gauges["sweep.pool_size"]; got != 0 {
				t.Errorf("sweep.pool_size = %g at exit, want 0", got)
			}
			if got := snap.Gauges["sweep.queue_depth"]; got != 0 {
				t.Errorf("sweep.queue_depth = %g at exit, want 0", got)
			}
			// Per-worker case counts must add up to the total.
			var perWorker int64
			for name, v := range snap.Counters {
				if len(name) > 13 && name[:13] == "sweep.worker." && name[len(name)-6:] == ".cases" {
					perWorker += v
				}
			}
			if perWorker != n {
				t.Errorf("per-worker case counts sum to %d, want %d", perWorker, n)
			}
		})
	}
}

// TestRunPartialCaseError: a case failure keeps the other completed cases
// and returns the original (non-cancellation) error.
func TestRunPartialCaseError(t *testing.T) {
	boom := errors.New("boom")
	results, completed, report, err := RunPartial(context.Background(), 8, Options{Workers: 2}, noState,
		func(ctx context.Context, i int, _ struct{}) (int, error) {
			if i == 3 {
				return 0, boom
			}
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v, want boom", err)
	}
	if errors.Is(err, telemetry.ErrCanceled) {
		t.Error("case failure must not masquerade as a cancellation")
	}
	if completed[3] {
		t.Error("failing case marked completed")
	}
	for i, ok := range completed {
		if ok && results[i] != i {
			t.Errorf("results[%d] = %d, want %d", i, results[i], i)
		}
	}
	// Even without KeepGoing the report names the case that aborted.
	if f, ok := report.Case(3); !ok || !errors.Is(f.Err, boom) {
		t.Errorf("failure report does not name case 3: %v", report)
	}
}
