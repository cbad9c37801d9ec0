// Package sweep is the bounded worker-pool runner behind the paper's
// evaluation sweeps. The Table 1 accuracy sweep, the delay-noise (push-out)
// distribution and the §4.2 run-time drivers all evaluate a few hundred
// *independent* aggressor-alignment cases — a coupled-RC transient plus
// transistor-level Γeff replays per case — which the sequential drivers
// executed on one core. RunPartial fans those cases out over GOMAXPROCS workers
// while preserving the sequential semantics the experiments rely on:
//
//   - Results are ordered by case index, so any order-dependent
//     aggregation (floating-point error sums, histograms) performed on the
//     returned slice is bit-identical to a sequential loop.
//   - Each worker owns private state built by a factory (the experiment
//     drivers allocate a core.GateSim — and therefore a spice.Simulator —
//     per worker, because the simulator is documented as not safe for
//     concurrent use).
//   - The first case error cancels the shared context, which stops the
//     dispatch of not-yet-started cases; in-flight cases drain. Among the
//     errors observed, the one with the lowest case index is returned, so
//     the reported failure is deterministic for deterministic case
//     functions.
//   - The progress callback is serialized: it never runs concurrently with
//     itself and sees a strictly increasing completed-case count; on an
//     early exit (error or cancellation) one final call repeats the last
//     count so displays can render a final state.
//   - Cancellation is first-class: when the parent context is canceled
//     RunPartial returns the completed cases together with an error
//     matching telemetry.ErrCanceled, so drivers can report partial
//     statistics instead of discarding finished work.
//   - An Options.Telemetry registry observes the sweep: queue depth and
//     pool-size gauges (both reset to zero on every exit path),
//     dispatched/completed counters, and per-worker case counts and busy
//     time — identically at every worker count.
//
// On top of those semantics sits a resilience layer (see resilience.go): a
// panicking case is recovered instead of crashing the process, cases can
// carry a per-case deadline (CaseTimeout), and KeepGoing mode quarantines
// failing cases — recording index, error and attempt log in a
// FailureReport — while the rest of the sweep completes.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"noisewave/internal/faultinject"
	"noisewave/internal/telemetry"
	"noisewave/internal/trace"
)

// Options configures a RunPartial sweep.
type Options struct {
	// Workers is the worker-pool size. Values <= 0 select
	// runtime.GOMAXPROCS(0). Workers == 1 runs the cases strictly in index
	// order on one worker goroutine, matching a plain loop: on an early
	// exit exactly the prefix before the stopping case has completed.
	Workers int
	// Progress, if non-nil, is invoked after each completed (or, with
	// KeepGoing, quarantined) case with the number of settled cases and the
	// total. Calls are serialized and done is strictly increasing; when the
	// sweep exits early on an error or cancellation, one final serialized
	// call repeats the last settled count.
	Progress func(done, total int)
	// Telemetry, if non-nil, receives the sweep's counters: dispatched and
	// completed cases, the undispatched-queue depth gauge, the worker-pool
	// size gauge, and per-worker case counts and busy time (metric names in
	// EXPERIMENTS.md "Observability"). Every worker count records the same
	// set, so throughput derived from the snapshot is comparable across
	// worker counts. Gauges are reset to zero on every exit path, including
	// early errors and cancellation.
	Telemetry *telemetry.Registry
	// Tracer, if non-nil, records one hierarchical root span per case
	// ("sweep.case", trace.Case = the case index).
	// The span's context is what do receives, so instrumented layers
	// below (core, spice, xtalk) nest their spans under it. The root
	// carries a "status" attr (ok / failed / canceled); failed cases add
	// "failure" (the error), "panicked", "timed_out" and "attempts". Nil —
	// the default — costs one nil check per case and changes nothing else:
	// results are bit-identical with tracing on or off.
	Tracer *trace.Tracer

	// KeepGoing quarantines failing cases instead of aborting the sweep:
	// a case error, panic or timeout is recorded in the FailureReport
	// (index, error, attempt log) and the remaining cases still run.
	// The sweep then returns a nil error as long as the pool survived and
	// the parent context stayed alive; consult the report for failures.
	KeepGoing bool
	// CaseTimeout, if > 0, bounds each case with its own deadline
	// (derived from the sweep context). A case that exceeds it fails with
	// an error matching ErrCaseTimeout — which deliberately does not match
	// telemetry.ErrCanceled, so a slow case cannot masquerade as a sweep
	// cancellation.
	CaseTimeout time.Duration
	// Inject, if non-nil, is the deterministic fault injector driving the
	// chaos suite: it can stall case dispatch (honoring the case context)
	// and panic workers. Nil — the production default — costs one nil
	// check per case.
	Inject *faultinject.Injector
}

// workerTelemetry returns the per-worker instruments (nil-safe).
func (o Options) workerTelemetry(w int) (*telemetry.Counter, *telemetry.Histogram) {
	return o.Telemetry.Counter(fmt.Sprintf("sweep.worker.%d.cases", w)),
		o.Telemetry.Timer(fmt.Sprintf("sweep.worker.%d.busy_seconds", w))
}

// RunPartial evaluates do(ctx, i, state) for every case index i in [0, n)
// over a bounded pool of workers and returns the results ordered by case
// index, which cases completed, and the FailureReport of the resilience
// layer.
//
// newWorker is called once per worker with the worker index and builds the
// worker-private state passed to every case that worker executes. do must
// be a pure function of its case index and worker state for the
// deterministic-ordering guarantee to extend to the results' values.
//
// The first error — from a worker factory, a case, or the parent context —
// cancels dispatch and is returned after in-flight cases drain. Case
// errors are returned as-is (do is expected to wrap them with case
// context). On cancellation (an error matching telemetry.ErrCanceled) or a
// case failure, results holds every completed case's value at its index
// (the zero value elsewhere) and completed flags exactly those indices.
// Aggregating the completed subset in index order stays deterministic for
// a deterministic do.
//
// The report is never nil once the sweep starts (n >= 0): its Total is n,
// and a clean sweep's names no failure. With Options.KeepGoing, failing
// cases are quarantined into the report and err stays nil as long as the
// pool survived and the parent context stayed alive; without it, the
// report still describes the (single) failing case that aborted the sweep.
func RunPartial[W, R any](ctx context.Context, n int, opts Options,
	newWorker func(worker int) (W, error),
	do func(ctx context.Context, i int, state W) (R, error)) (results []R, completed []bool, report *FailureReport, err error) {

	if n < 0 {
		return nil, nil, nil, fmt.Errorf("sweep: negative case count %d", n)
	}
	results = make([]R, n)
	completed = make([]bool, n)
	report = &FailureReport{Total: n}
	if n == 0 {
		return results, completed, report, nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	poolSize := opts.Telemetry.Gauge("sweep.pool_size")
	poolSize.Set(float64(workers))
	queueDepth := opts.Telemetry.Gauge("sweep.queue_depth")
	// Every exit path leaves the gauges at zero: a snapshot taken after the
	// sweep — even one that errored out early — must not claim a live pool
	// or a pending queue.
	defer func() {
		poolSize.Set(0)
		queueDepth.Set(0)
	}()
	dispatched := opts.Telemetry.Counter("sweep.cases_dispatched")
	completedCtr := opts.Telemetry.Counter("sweep.cases_completed")
	quarantinedCtr := opts.Telemetry.Counter("sweep.cases_quarantined")

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu          sync.Mutex
		firstErr    error
		errIdx      = n // lowest failing case index; n means "none"
		done        int
		failures    []CaseFailure
		workersLost int
		liveWorkers = workers
	)
	// fail records an error, keeping the lowest-index one, and cancels
	// dispatch. Worker-factory failures use idx == -1 so they dominate.
	fail := func(idx int, err error) {
		mu.Lock()
		if firstErr == nil || idx < errIdx {
			firstErr, errIdx = err, idx
		}
		mu.Unlock()
		cancel()
	}
	complete := func() {
		mu.Lock()
		done++
		d := done
		if opts.Progress != nil {
			opts.Progress(d, n)
		}
		mu.Unlock()
	}
	quarantine := func(f CaseFailure) {
		mu.Lock()
		failures = append(failures, f)
		mu.Unlock()
		quarantinedCtr.Inc()
	}
	// workerDown retires a worker whose state is unbuildable. Without
	// KeepGoing that aborts the sweep (the historical contract); with it
	// the pool degrades, aborting only when the last worker dies.
	workerDown := func(cause error) {
		if !opts.KeepGoing {
			fail(-1, cause)
			return
		}
		mu.Lock()
		workersLost++
		liveWorkers--
		last := liveWorkers == 0
		mu.Unlock()
		if last {
			fail(-1, fmt.Errorf("%w (last worker: %v)", ErrWorkersLost, cause))
		}
	}

	indices := make(chan int)
	go func() {
		defer close(indices)
		queueDepth.Set(float64(n))
		for i := 0; i < n; i++ {
			select {
			case indices <- i:
				queueDepth.Set(float64(n - i - 1))
			case <-ctx.Done():
				queueDepth.Set(0)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wCases, wBusy := opts.workerTelemetry(w)
			rebuild := func() (W, error) { return newWorker(w) }
			state, err := newWorker(w)
			if err != nil {
				workerDown(fmt.Errorf("sweep: worker %d: %w", w, err))
				return
			}
			for i := range indices {
				// When a send and the cancellation are both ready the
				// dispatcher's select picks at random, so an index can
				// arrive after the sweep stopped: start no case then.
				if ctx.Err() != nil {
					return
				}
				dispatched.Inc()
				caseStart := time.Now()
				out, ns := runCase(ctx, opts, i, state, rebuild, do)
				state = ns
				wBusy.Observe(time.Since(caseStart).Seconds())
				switch {
				case out.cancel != nil:
					fail(i, out.cancel)
					return
				case out.failure != nil:
					if !opts.KeepGoing {
						mu.Lock()
						failures = append(failures, *out.failure)
						mu.Unlock()
						fail(i, out.failure.Err)
						return
					}
					quarantine(*out.failure)
					complete()
					if out.workerDead {
						workerDown(out.failure.Err)
						return
					}
				default:
					results[i] = out.value
					completed[i] = true
					wCases.Inc()
					completedCtr.Inc()
					complete()
				}
			}
		}(w)
	}
	wg.Wait()

	sortFailures(failures)
	report.Failures, report.WorkersLost = failures, workersLost
	// One final serialized Progress call on early exits, so displays can
	// render the state the sweep actually stopped in. (The workers have
	// drained; no call can race this one.)
	finalProgress := func() {
		if opts.Progress != nil {
			opts.Progress(done, n)
		}
	}
	if firstErr != nil {
		finalProgress()
		return results, completed, report, firstErr
	}
	// Dispatch may have been stopped by the parent context without any
	// case failing.
	if parent.Err() != nil {
		finalProgress()
		return results, completed, report, telemetry.Canceled(parent,
			"sweep: canceled after %d/%d cases", done, n)
	}
	return results, completed, report, nil
}

// sortFailures orders quarantine records by ascending case index (workers
// append them in completion order).
func sortFailures(fs []CaseFailure) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].Index < fs[j-1].Index; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}
