package trace

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestNilTracerIsNoOp: the production default — no tracer — must cost one
// branch and allocate nothing: Root returns the context unchanged and a nil
// span whose whole method set is inert, and Start on an untraced context
// does the same.
func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	ctx := context.Background()
	cctx, root := tr.Root(ctx, "sweep.case", 3)
	if cctx != ctx {
		t.Error("nil tracer must return the context unchanged")
	}
	if root != nil {
		t.Fatal("nil tracer must return a nil span")
	}
	root.SetAttr(Int("case", 3))
	root.Event("event")
	root.End()
	if c := root.Child("child"); c != nil {
		t.Error("nil span must yield a nil child")
	}
	sctx, sp := Start(ctx, "op")
	if sctx != ctx || sp != nil {
		t.Error("Start on an untraced context must be (ctx, nil)")
	}
	if SpanOf(nil) != nil {
		t.Error("SpanOf(nil ctx) must be nil")
	}
	if tr.Spans() != nil || tr.Dropped() != 0 {
		t.Error("nil tracer accessors must be empty")
	}

	allocs := testing.AllocsPerRun(100, func() {
		_, s := tr.Root(ctx, "sweep.case", 1)
		s.SetAttr(Int("i", 1))
		s.End()
	})
	if allocs != 0 {
		t.Errorf("nil-tracer hot path allocates %.1f objects/op, want 0", allocs)
	}
}

// TestHierarchy: children inherit trace ID and case, parent links form the
// tree, and events carry monotonic offsets.
func TestHierarchy(t *testing.T) {
	tr := New()
	ctx, root := tr.Root(context.Background(), "sweep.case", 7, Int("worker", 0))
	if SpanOf(ctx) != root {
		t.Fatal("Root must install the span in the context")
	}
	cctx, child := Start(ctx, "xtalk.transient", String("config", "I"))
	child.Event("spice.recovery.gmin_ramp", Float("t", 1e-9))
	_, grand := Start(cctx, "spice.transient")
	grand.End()
	child.End()
	root.SetAttr(String("health", "ok"))
	root.End()
	root.End() // idempotent

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Creation order: root, child, grand; IDs ascending.
	r, c, g := spans[0], spans[1], spans[2]
	if r.Parent != 0 || c.Parent != r.ID || g.Parent != c.ID {
		t.Errorf("parent chain broken: root=%+v child=%+v grand=%+v", r, c, g)
	}
	for _, s := range spans {
		if s.TraceID != r.TraceID || s.Case != 7 {
			t.Errorf("span %s: trace/case not inherited: %+v", s.Name, s)
		}
	}
	if len(c.Events) != 1 || c.Events[0].Name != "spice.recovery.gmin_ramp" || c.Events[0].At < 0 {
		t.Errorf("child events = %+v", c.Events)
	}
	if got := attrMap(r.Attrs); got["health"] != "ok" || got["worker"] != int64(0) {
		t.Errorf("root attrs = %v", got)
	}
	if cs := tr.CaseSpans(7); len(cs) != 3 {
		t.Errorf("CaseSpans(7) = %d spans, want 3", len(cs))
	}
	if cs := tr.CaseSpans(8); len(cs) != 0 {
		t.Errorf("CaseSpans(8) = %d spans, want 0", len(cs))
	}
}

// TestConcurrentCases: case spans ended from many goroutines (the sweep
// worker pool) must all land, each with a distinct span ID.
func TestConcurrentCases(t *testing.T) {
	tr := New()
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, root := tr.Root(context.Background(), "sweep.case", i)
			_, c := Start(ctx, "child")
			c.End()
			root.End()
		}(i)
	}
	wg.Wait()
	spans := tr.Spans()
	if len(spans) != 2*n {
		t.Fatalf("got %d spans, want %d", len(spans), 2*n)
	}
	ids := make(map[uint64]bool)
	for _, s := range spans {
		if ids[s.ID] {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		ids[s.ID] = true
	}
	for i := 0; i < n; i++ {
		if cs := tr.CaseSpans(i); len(cs) != 2 {
			t.Errorf("case %d has %d spans, want 2", i, len(cs))
		}
	}
}

// TestCapacityDrop: overflowing the span store drops and counts instead of
// growing without bound.
func TestCapacityDrop(t *testing.T) {
	tr := New()
	tr.cap = 4
	for i := 0; i < 10; i++ {
		_, s := tr.Root(context.Background(), "sweep.case", i)
		s.End()
	}
	if n := len(tr.Spans()); n != 4 {
		t.Errorf("stored %d spans, want 4", n)
	}
	if tr.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", tr.Dropped())
	}
}

// TestWriteChrome: the exporter must emit valid trace_event JSON with one
// complete ("X") event per span, instant events for span events, and a
// thread-name metadata record per case.
func TestWriteChrome(t *testing.T) {
	tr := New()
	ctx, root := tr.Root(context.Background(), "sweep.case", 0, Floats("offsets", []float64{-1e-10}))
	_, child := Start(ctx, "core.technique", String("technique", "SGDP"))
	child.Event("replay.cache_hit")
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Epoch(), tr.Spans()); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	for _, e := range f.TraceEvents {
		phases[e["ph"].(string)]++
	}
	if phases["X"] != 2 || phases["i"] != 1 || phases["M"] != 1 {
		t.Errorf("event phases = %v, want 2 X, 1 i, 1 M", phases)
	}
	if !strings.Contains(buf.String(), `"case 0"`) {
		t.Errorf("thread name for case 0 missing:\n%s", buf.String())
	}
}

// TestWriteJournal: one line per case root, ascending by case, with
// aggregate span/event counts and flattened attrs.
func TestWriteJournal(t *testing.T) {
	tr := New()
	for _, i := range []int{2, 0, 1} {
		ctx, root := tr.Root(context.Background(), "sweep.case", i, String("status", "ok"))
		_, c := Start(ctx, "xtalk.transient")
		c.Event("e")
		c.End()
		root.End()
	}
	// A run-level root must not produce a journal line.
	_, run := tr.Root(context.Background(), "repro.run", NoCase)
	run.End()

	var buf bytes.Buffer
	if err := WriteJournal(&buf, tr.Epoch(), tr.Spans()); err != nil {
		t.Fatalf("WriteJournal: %v", err)
	}
	var entries []JournalEntry
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e JournalEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("journal line is not valid JSON: %v (%s)", err, sc.Text())
		}
		entries = append(entries, e)
	}
	if len(entries) != 3 {
		t.Fatalf("journal has %d lines, want 3", len(entries))
	}
	for i, e := range entries {
		if e.Case != i {
			t.Errorf("line %d: case %d, want ascending order", i, e.Case)
		}
		if e.Spans != 2 || e.Events != 1 {
			t.Errorf("case %d: spans=%d events=%d, want 2/1", e.Case, e.Spans, e.Events)
		}
		if e.Attrs["status"] != "ok" {
			t.Errorf("case %d: attrs = %v", e.Case, e.Attrs)
		}
		if len(e.Children) != 1 || e.Children[0] != "xtalk.transient" {
			t.Errorf("case %d: children = %v", e.Case, e.Children)
		}
	}
}

// TestMarshalSpans: the /trace payload round-trips through JSON.
func TestMarshalSpans(t *testing.T) {
	tr := New()
	ctx, root := tr.Root(context.Background(), "sweep.case", 5, Int("case", 5))
	_, c := Start(ctx, "child")
	c.Event("ev", Bool("hit", true))
	c.End()
	root.End()
	b, err := MarshalSpans(tr.Epoch(), tr.CaseSpans(5))
	if err != nil {
		t.Fatalf("MarshalSpans: %v", err)
	}
	var out []map[string]any
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("payload not valid JSON: %v", err)
	}
	if len(out) != 2 {
		t.Fatalf("payload has %d spans, want 2", len(out))
	}
	if out[1]["parent"] == nil || out[1]["name"] != "child" {
		t.Errorf("child span malformed: %v", out[1])
	}
}
