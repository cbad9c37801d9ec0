package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanRecord is one timed call into a layer: name, start, end and the
// span that caused it (-1 for a root). Times are nanoseconds since the
// tracer's epoch.
type spanRecord struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps the traced run's spans in memory; write saves them when
// the run ends. Safe for concurrent use; a nil tracer records nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []spanRecord
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRecord{Name: name, Start: now, End: -1, Parent: parent})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTime returns, per span name, the summed self time and the span
// count. A span's self time is its duration minus the part of it its
// children cover.
func (t *tracer) selfTime() (total map[string]time.Duration, count map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]spanRecord)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total, count = map[string]time.Duration{}, map[string]int{}
	for i, s := range t.spans {
		covered := int64(0)
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		lo, hi := int64(-1), int64(-1)
		for _, k := range kids {
			if k.Start > hi {
				covered += hi - lo
				lo, hi = k.Start, k.End
			} else if k.End > hi {
				hi = k.End
			}
		}
		covered += hi - lo
		total[s.Name] += time.Duration(s.End - s.Start - covered)
		count[s.Name]++
	}
	return total, count
}

// write saves the spans as JSON to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Clean(path), b, 0o644)
}
