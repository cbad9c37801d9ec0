package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeTimerBasics(t *testing.T) {
	r := New()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("a.count") != c {
		t.Error("Counter did not return the same instrument for the same name")
	}

	g := r.Gauge("a.depth")
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %g, want 1.5", got)
	}

	tm := r.Timer("a.seconds")
	tm.Observe(0.5)
	tm.Observe(1.5)
	st := tm.Stats()
	if st.Count != 2 || st.Sum != 2.0 || st.Min != 0.5 || st.Max != 1.5 || st.Avg != 1.0 {
		t.Errorf("timer stats = %+v", st)
	}
	// A timer's name is taken: Histogram returns the same bucketless
	// instrument, which the snapshot keeps under Timers.
	if r.Histogram("a.seconds") != tm {
		t.Error("Histogram returned a different instrument for a timer's name")
	}
	if s := r.Snapshot(); s.Timers["a.seconds"].Count != 2 || len(s.Histograms) != 0 {
		t.Errorf("snapshot timers = %+v, histograms = %+v", s.Timers, s.Histograms)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Timer("x").Observe(1)
	r.Timer("x").Start()()
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Timers) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := New()
	r.Counter("c").Add(10)
	r.Gauge("g").Set(7)
	r.Timer("t").Observe(2)
	before := r.Snapshot()

	r.Counter("c").Add(5)
	r.Counter("new").Inc()
	r.Gauge("g").Set(3)
	r.Timer("t").Observe(4)
	d := r.Snapshot().Delta(before)

	if d.Counters["c"] != 5 {
		t.Errorf("delta c = %d, want 5", d.Counters["c"])
	}
	if d.Counters["new"] != 1 {
		t.Errorf("delta new = %d, want 1", d.Counters["new"])
	}
	if d.Gauges["g"] != 3 {
		t.Errorf("delta gauge = %g, want current level 3", d.Gauges["g"])
	}
	ts := d.Timers["t"]
	if ts.Count != 1 || ts.Sum != 4 || ts.Avg != 4 {
		t.Errorf("delta timer = %+v, want count=1 sum=4", ts)
	}
}

// TestConcurrentInstruments drives every instrument type from many
// goroutines; run under -race this is the registry's concurrency contract.
func TestConcurrentInstruments(t *testing.T) {
	r := New()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Timer("t").Observe(1)
				if i%100 == 0 {
					_ = r.Snapshot() // snapshots race against writers by design
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("g").Value(); got != workers*perWorker {
		t.Errorf("gauge = %g, want %d", got, workers*perWorker)
	}
	if st := r.Timer("t").Stats(); st.Count != workers*perWorker {
		t.Errorf("timer count = %d, want %d", st.Count, workers*perWorker)
	}
}

func TestSnapshotSerialization(t *testing.T) {
	r := New()
	r.Counter("spice.transients").Add(3)
	r.Gauge("sweep.queue_depth").Set(2)
	r.Timer("spice.transient_seconds").Observe(0.25)

	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if round.Counters["spice.transients"] != 3 {
		t.Errorf("round-tripped counter = %d", round.Counters["spice.transients"])
	}

	buf.Reset()
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"spice.transients", "sweep.queue_depth", "spice.transient_seconds"} {
		if !strings.Contains(text, want) {
			t.Errorf("text dump missing %q:\n%s", want, text)
		}
	}
}

func TestCanceledWrapsBothSentinels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Canceled(ctx, "sweep: stopped after %d cases", 7)
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("err does not match ErrCanceled: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err does not match context.Canceled: %v", err)
	}
	if !strings.Contains(err.Error(), "stopped after 7 cases") {
		t.Errorf("err lost its context: %v", err)
	}
}
