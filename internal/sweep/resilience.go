package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"

	"noisewave/internal/obs/logctx"
	"noisewave/internal/trace"
)

// ErrCaseTimeout marks a case that exceeded Options.CaseTimeout. It is a
// per-case failure, not a sweep cancellation: it deliberately does NOT
// match telemetry.ErrCanceled, so a slow case cannot masquerade as the
// whole sweep being canceled. With KeepGoing set such cases are
// quarantined; otherwise the sweep stops with this error.
var ErrCaseTimeout = errors.New("sweep: case timeout")

// ErrWorkersLost marks a sweep abandoned because every worker died — each
// hit an unrecoverable panic whose state rebuild failed, or its factory
// never produced state. Remaining cases are left incomplete.
var ErrWorkersLost = errors.New("sweep: all workers lost")

// CaseFailure records one quarantined case: which case, its error, how the
// failure manifested, and the attempt log drivers print in failure
// reports.
type CaseFailure struct {
	// Index is the case index in [0, n).
	Index int
	// Err is the case's error. For timeouts it matches ErrCaseTimeout; for
	// panics it carries the recovered panic value.
	Err error
	// Panicked is set when the case panicked (the worker recovered, then
	// rebuilt its state or, if the rebuild failed, exited).
	Panicked bool
	// TimedOut is set when the case exceeded Options.CaseTimeout.
	TimedOut bool
	// Attempts logs the case's one attempt, e.g. "attempt 1/1: panic:
	// boom", followed by a "rebuild: ..." line when the worker state could
	// not be rebuilt after a panic.
	Attempts []string
}

// String renders the failure for logs: case index, classification and the
// final error.
func (f CaseFailure) String() string {
	kind := "error"
	switch {
	case f.Panicked:
		kind = "panic"
	case f.TimedOut:
		kind = "timeout"
	}
	return fmt.Sprintf("case %d [%s, %d attempt(s)]: %v", f.Index, kind, len(f.Attempts), f.Err)
}

// FailureReport is the typed account of what went wrong in a sweep: its
// case count, the quarantined cases (ascending index) and any workers lost
// to unrecoverable panics. RunPartial returns one for every sweep; a clean
// sweep's has no failures. Quarantined and Case also accept a nil report,
// as a result that keeps only unclean reports may hold.
type FailureReport struct {
	// Total is the sweep's case count.
	Total int
	// Failures holds the quarantined cases in ascending index order.
	Failures []CaseFailure
	// WorkersLost counts workers that exited early because their state
	// could not be rebuilt after a panic (or never built at all).
	WorkersLost int
}

// Quarantined returns the number of quarantined cases.
func (r *FailureReport) Quarantined() int {
	if r == nil {
		return 0
	}
	return len(r.Failures)
}

// Case returns the failure record for case index i, if it was quarantined.
// The resilience and partial-sweep tests look failures up through it.
func (r *FailureReport) Case(i int) (CaseFailure, bool) {
	if r == nil {
		return CaseFailure{}, false
	}
	for _, f := range r.Failures {
		if f.Index == i {
			return f, true
		}
	}
	return CaseFailure{}, false
}

// String renders a compact multi-line report for terminal output.
func (r *FailureReport) String() string {
	if len(r.Failures) == 0 && r.WorkersLost == 0 {
		return "no case failures"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d case(s) quarantined", len(r.Failures), r.Total)
	if r.WorkersLost > 0 {
		fmt.Fprintf(&b, ", %d worker(s) lost", r.WorkersLost)
	}
	for _, f := range r.Failures {
		b.WriteString("\n  ")
		b.WriteString(f.String())
	}
	return b.String()
}

// caseOutcome is the result of running one case through the resilience
// machinery: exactly one of value (success), failure (quarantinable), or
// cancel (the parent context died mid-case) applies.
type caseOutcome[R any] struct {
	value   R
	failure *CaseFailure
	cancel  error
	// workerDead is set alongside failure when a panic destroyed the
	// worker state and the factory could not rebuild it; the worker must
	// exit.
	workerDead bool
}

// attemptCase executes a single attempt of case i with panic containment
// and fault-injection hooks. The returned error carries the panic value
// when panicked is set; stack holds a trimmed goroutine stack for the
// attempt log.
func attemptCase[W, R any](ctx context.Context, opts Options, i int, state W,
	do func(context.Context, int, W) (R, error)) (r R, err error, panicked bool, stack string) {

	defer func() {
		if p := recover(); p != nil {
			panicked = true
			stack = trimStack(debug.Stack())
			err = fmt.Errorf("sweep: case %d panicked: %v", i, p)
		}
	}()
	opts.Inject.StallPoint(ctx)
	if opts.Inject.PanicsWorker() {
		panic(fmt.Sprintf("injected worker panic (case %d)", i))
	}
	r, err = do(ctx, i, state)
	return r, err, false, ""
}

// trimStack keeps the first few frames of a panic stack — enough to name
// the site without flooding an attempt log.
func trimStack(s []byte) string {
	lines := strings.Split(strings.TrimSpace(string(s)), "\n")
	if len(lines) > 9 {
		lines = lines[:9]
	}
	return strings.Join(lines, "\n")
}

// runCase executes case i once under the resilience ladder: a per-case
// deadline (Options.CaseTimeout) and panic recovery with worker-state
// rebuild. rebuild re-invokes the worker factory after a panic, because a
// panic mid-case may have left the worker-private state (a simulator
// mid-assembly) unusable for the worker's next case.
//
// The returned state is the (possibly rebuilt) worker state the caller
// must carry forward.
func runCase[W, R any](ctx context.Context, opts Options, i int, state W,
	rebuild func() (W, error),
	do func(context.Context, int, W) (R, error)) (caseOutcome[R], W) {

	ctx, root := opts.Tracer.Root(ctx, "sweep.case", i)
	defer root.End()
	caseCtx, cancel := ctx, context.CancelFunc(func() {})
	if opts.CaseTimeout > 0 {
		caseCtx, cancel = context.WithTimeout(ctx, opts.CaseTimeout)
	}
	r, err, panicked, stack := attemptCase(caseCtx, opts, i, state, do)
	timedOut := caseCtx.Err() == context.DeadlineExceeded && ctx.Err() == nil
	cancel()

	if err == nil {
		root.SetAttr(trace.String("status", "ok"), trace.Int("attempts", 1))
		return caseOutcome[R]{value: r}, state
	}
	if ctx.Err() != nil && !panicked {
		// The parent died while the case ran: this is a sweep
		// cancellation, not a case failure.
		root.SetAttr(trace.String("status", "canceled"))
		return caseOutcome[R]{cancel: err}, state
	}
	fail := CaseFailure{Index: i}
	switch {
	case panicked:
		fail.Panicked = true
		opts.Telemetry.Counter("sweep.worker_panics").Inc()
		note := fmt.Sprintf("attempt 1/1: %v", err)
		if stack != "" {
			note += "\n    " + strings.ReplaceAll(stack, "\n", "\n    ")
		}
		fail.Attempts = append(fail.Attempts, note)
	case timedOut:
		fail.TimedOut = true
		opts.Telemetry.Counter("sweep.case_timeouts").Inc()
		// %v (not %w) on the underlying error: it usually wraps the
		// deadline's context error, which must not make the timeout
		// match telemetry.ErrCanceled.
		err = fmt.Errorf("%w: case %d exceeded %v (%v)", ErrCaseTimeout, i, opts.CaseTimeout, err)
		fail.Attempts = append(fail.Attempts, fmt.Sprintf("attempt 1/1: timeout after %v", opts.CaseTimeout))
	default:
		fail.Attempts = append(fail.Attempts, fmt.Sprintf("attempt 1/1: %v", err))
	}
	fail.Err = err

	out := caseOutcome[R]{failure: &fail}
	if panicked {
		// The panic may have corrupted the worker-private state
		// (half-assembled matrices, dangling history). Rebuild it before
		// the worker's next case.
		if ns, rerr := rebuild(); rerr != nil {
			fail.Err = fmt.Errorf("sweep: case %d: worker state rebuild after panic failed: %w (panic: %v)", i, rerr, err)
			fail.Attempts = append(fail.Attempts, fmt.Sprintf("rebuild: %v", rerr))
			out.workerDead = true
		} else {
			state = ns
		}
	}
	failSpan(root, fail)
	logQuarantine(ctx, fail)
	return out, state
}

// logQuarantine emits the structured quarantine event; the correlation ID
// (the owning job, when run under one) rides in from the context.
func logQuarantine(ctx context.Context, fail CaseFailure) {
	logctx.From(ctx).Warn("case quarantined",
		"case", fail.Index,
		"panicked", fail.Panicked,
		"timed_out", fail.TimedOut,
		"attempts", len(fail.Attempts),
		"err", fail.Err.Error(),
	)
}

// failSpan annotates a case root span with the failure record; the
// "failure" attr is the quarantine marker downstream consumers key on.
func failSpan(root *trace.Span, fail CaseFailure) {
	root.SetAttr(
		trace.String("status", "failed"),
		trace.String("failure", fail.Err.Error()),
		trace.Bool("panicked", fail.Panicked),
		trace.Bool("timed_out", fail.TimedOut),
		trace.Int("attempts", len(fail.Attempts)),
	)
}
