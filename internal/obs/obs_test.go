package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"noisewave/internal/sweep"
	"noisewave/internal/telemetry"
	"noisewave/internal/trace"
)

func TestNilProgressIsNoOp(t *testing.T) {
	var p *Progress
	p.SetPhase("x", 10)
	if got := p.Snapshot(); got != (ProgressSnapshot{}) {
		t.Errorf("nil snapshot = %+v", got)
	}
	called := 0
	next := func(done, total int) { called++ }
	hook := p.Hook(next)
	hook(1, 2)
	if called != 1 {
		t.Error("nil Progress.Hook must return next unchanged")
	}
	if p.Hook(nil) != nil {
		t.Error("nil Progress.Hook(nil) must be nil")
	}
}

func TestProgressHookAndPhase(t *testing.T) {
	p := &Progress{}
	p.SetPhase("table1 I", 200)
	if got := p.Snapshot(); got.Phase != "table1 I" || got.Total != 200 || got.Done != 0 {
		t.Errorf("after SetPhase: %+v", got)
	}
	var forwarded atomic.Int64 // the concurrent leg below calls next too
	hook := p.Hook(func(done, total int) { forwarded.Store(int64(done)) })
	hook(7, 200)
	if got := p.Snapshot(); got.Done != 7 || got.Total != 200 {
		t.Errorf("after hook: %+v", got)
	}
	if got := forwarded.Load(); got != 7 {
		t.Errorf("next callback got %d", got)
	}

	// Concurrent updates (run with -race).
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				hook(j, 200)
				_ = p.Snapshot()
			}
		}()
	}
	wg.Wait()
}

// TestRunArtifacts drives the full artifact writer over a real traced
// mini-sweep and checks the journal line count equals settled cases.
func TestRunArtifacts(t *testing.T) {
	tr := trace.New()
	reg := telemetry.New()
	n := 5
	_, _, report, err := sweep.RunPartial(context.Background(), n,
		sweep.Options{Workers: 2, Tracer: tr, Telemetry: reg, KeepGoing: true},
		func(int) (struct{}, error) { return struct{}{}, nil },
		func(_ context.Context, i int, _ struct{}) (int, error) {
			if i == 3 {
				return 0, errors.New("boom")
			}
			return i, nil
		})
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "run")
	a, err := OpenRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteConfig(map[string]any{"workers": 2}); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteMetrics(reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteTrace(tr); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteFailures(map[string]*sweep.FailureReport{"mini": report}); err != nil {
		t.Fatal(err)
	}

	// Journal: one line per settled case (completed + quarantined).
	f, err := os.Open(filepath.Join(dir, FileJournal))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e trace.JournalEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("journal line %d: %v", lines, err)
		}
		lines++
	}
	if lines != n {
		t.Errorf("journal has %d lines, want %d (completed+quarantined)", lines, n)
	}

	// Chrome trace: valid JSON with a traceEvents array.
	raw, err := os.ReadFile(filepath.Join(dir, FileTrace))
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Error("trace.json has no events")
	}

	// Failures: the quarantined case is there with its error string.
	raw, err = os.ReadFile(filepath.Join(dir, FileFailures))
	if err != nil {
		t.Fatal(err)
	}
	var reps map[string]struct {
		Total    int `json:"total"`
		Failures []struct {
			Index int    `json:"index"`
			Error string `json:"error"`
		} `json:"failures"`
	}
	if err := json.Unmarshal(raw, &reps); err != nil {
		t.Fatal(err)
	}
	mini := reps["mini"]
	if mini.Total != n || len(mini.Failures) != 1 || mini.Failures[0].Index != 3 || mini.Failures[0].Error == "" {
		t.Errorf("failures.json = %+v", mini)
	}

	// Metrics and config parse.
	for _, name := range []string{FileMetrics, FileConfig} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestWriteTraceNilTracerIsNoOp(t *testing.T) {
	a, err := OpenRun(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteTrace(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(a.Dir(), FileTrace)); !os.IsNotExist(err) {
		t.Error("nil tracer must not create trace.json")
	}
}
