// Package trace is the hierarchical span tracer of the sweep pipeline. It
// answers the question the flat telemetry counters cannot: for each of the
// paper's aggressor-alignment cases, *when* did the golden transient, the
// per-technique Γeff fits and the replay transients run, in what order, and
// which recovery or quarantine path did they take.
//
// The model is a small subset of distributed tracing, specialized for the
// sweep:
//
//   - A Tracer collects completed spans. One tracer observes a whole run;
//     it is safe for concurrent use by the sweep workers.
//   - A root span is opened per sweep case (sweep.runCase) and carries the
//     case index; every root gets a fresh case-scoped trace ID.
//   - Child spans nest under their parent through the context: xtalk
//     transients, per-technique fits, replay transients and spice solves
//     all call Start(ctx, ...) and land under whatever span the context
//     carries. Spans also record point Events (cache hits, recovery rungs).
//   - Timing is monotonic: Start captures a time.Time (which carries Go's
//     monotonic reading) and End records a monotonic duration.
//
// A nil *Tracer — the production default — is a valid no-op: Root returns
// (ctx, nil) after a single branch, and every method of a nil *Span is a
// no-op, so instrumented code threads spans unconditionally. With tracing
// off the sweep outputs are byte-identical to an uninstrumented build.
//
// A Span is confined to the goroutine running its case (like the simulator
// itself); the Tracer's completed-span store is what synchronizes.
package trace

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span or event. Values are kept as
// produced (string, int64, float64, bool, []float64) and serialized by the
// exporters.
type Attr struct {
	Key   string
	Value any
}

// String returns a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int returns an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: int64(v)} }

// Int64 returns an integer attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, Value: v} }

// Float returns a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, Value: v} }

// Bool returns a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: v} }

// Floats returns a float-slice attribute (the value is copied, so callers
// may keep mutating their slice).
func Floats(k string, v []float64) Attr {
	return Attr{Key: k, Value: append([]float64(nil), v...)}
}

// Event is a point-in-time annotation inside a span (a replay-cache hit, a
// recovery-ladder rung), at a monotonic offset from the span start.
type Event struct {
	Name  string
	At    time.Duration
	Attrs []Attr
}

// SpanRecord is one completed span as stored by the tracer.
type SpanRecord struct {
	// TraceID groups the spans of one sweep case (or other root); children
	// inherit it from their root.
	TraceID uint64
	// ID is unique within the tracer; Parent is the parent span's ID, 0 for
	// a root span.
	ID, Parent uint64
	// Name is the operation ("sweep.case", "spice.transient", ...).
	Name string
	// Case is the sweep case index the span belongs to, -1 for spans
	// outside any case (run-level roots).
	Case int
	// Start is the wall-clock start (with Go's monotonic reading);
	// Duration is the monotonic span length.
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
	Events   []Event
}

// NoCase marks a root span that is not bound to a sweep case.
const NoCase = -1

// defaultCapacity bounds the completed-span store. A full 200-case Table 1
// sweep emits a few thousand spans; the bound only matters for runaway
// instrumentation, and overflow is counted rather than silently ignored.
const defaultCapacity = 1 << 18

// Tracer collects completed spans. The zero value is not usable; call New.
// A nil *Tracer is valid everywhere and turns every operation into a no-op.
type Tracer struct {
	mu      sync.Mutex
	spans   []SpanRecord
	common  []Attr
	dropped int64

	nextID atomic.Uint64
	epoch  time.Time
	cap    int
}

// New returns an empty tracer. The epoch (time zero of the exported
// timelines) is the moment of creation.
func New() *Tracer {
	return &Tracer{epoch: time.Now(), cap: defaultCapacity}
}

// Epoch returns the tracer's time zero (zero time for a nil tracer).
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// SetCommonAttrs sets attributes stamped onto every subsequent root span
// (e.g. the owning job ID, so every trace in a job's artifact bundle can be
// joined back to its logs by correlation ID). Nil-safe no-op.
func (t *Tracer) SetCommonAttrs(attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.common = append([]Attr(nil), attrs...)
	t.mu.Unlock()
}

// Root opens a root span: a fresh trace ID, no parent, bound to the given
// sweep case index (NoCase for run-level spans). It returns a context
// carrying the span, under which Start nests children. Nil-safe: a nil
// tracer returns (ctx, nil) after one branch.
func (t *Tracer) Root(ctx context.Context, name string, caseIndex int, attrs ...Attr) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	t.mu.Lock()
	common := t.common
	t.mu.Unlock()
	if len(common) > 0 {
		attrs = append(append([]Attr(nil), common...), attrs...)
	}
	id := t.nextID.Add(1)
	s := &Span{
		tracer: t,
		rec: SpanRecord{
			TraceID: id, ID: id, Case: caseIndex,
			Name: name, Start: time.Now(), Attrs: attrs,
		},
	}
	return With(ctx, s), s
}

// add stores a completed span, dropping (and counting) past capacity.
func (t *Tracer) add(rec SpanRecord) {
	t.mu.Lock()
	if len(t.spans) >= t.cap {
		t.dropped++
	} else {
		t.spans = append(t.spans, rec)
	}
	t.mu.Unlock()
}

// Spans returns a copy of every completed span, ordered by span ID (i.e.
// creation order, which is deterministic for a sequential sweep).
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]SpanRecord(nil), t.spans...)
	t.mu.Unlock()
	sortSpans(out)
	return out
}

// CaseSpans returns the completed spans of one sweep case, in creation
// order.
func (t *Tracer) CaseSpans(caseIndex int) []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var out []SpanRecord
	for _, s := range t.spans {
		if s.Case == caseIndex {
			out = append(out, s)
		}
	}
	t.mu.Unlock()
	sortSpans(out)
	return out
}

// Dropped returns how many completed spans were discarded because the
// store was full. The trace and experiments tests check the store bound
// with it.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// sortSpans orders records by span ID (insertion sort: End order is close
// to ID order already).
func sortSpans(s []SpanRecord) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].ID < s[j-1].ID; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Span is one in-flight traced operation. A span is confined to the
// goroutine running its case; all methods are nil-receiver-safe no-ops so
// instrumented code never branches on "is tracing on".
type Span struct {
	tracer *Tracer
	rec    SpanRecord
	ended  bool
}

// ctxKey carries the active span through a context.
type ctxKey struct{}

// With returns a context carrying the span. A nil span returns ctx
// unchanged, so untraced runs never grow the context chain.
func With(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanOf returns the span carried by the context, nil when there is none
// (including a nil context, so callers holding an optional context need no
// guard).
func SpanOf(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Start opens a child span under the context's span and returns a derived
// context carrying it. With no span in the context (tracing off) it
// returns (ctx, nil) — the single-branch no-op path.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parent := SpanOf(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.Child(name, attrs...)
	return With(ctx, child), child
}

// Child opens a child span inheriting the receiver's trace ID and case.
// Nil-safe: a nil parent yields a nil child.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		tracer: s.tracer,
		rec: SpanRecord{
			TraceID: s.rec.TraceID,
			ID:      s.tracer.nextID.Add(1),
			Parent:  s.rec.ID,
			Case:    s.rec.Case,
			Name:    name,
			Start:   time.Now(),
			Attrs:   attrs,
		},
	}
}

// SetAttr appends attributes to the span (exporters keep the last value of
// a repeated key).
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.rec.Attrs = append(s.rec.Attrs, attrs...)
}

// Event records a point event at the current monotonic offset.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.rec.Events = append(s.rec.Events, Event{
		Name: name, At: time.Since(s.rec.Start), Attrs: attrs,
	})
}

// End completes the span, recording its monotonic duration into the
// tracer. Multiple Ends are idempotent; a nil span ignores the call.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.rec.Duration = time.Since(s.rec.Start)
	s.tracer.add(s.rec)
}
