package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"sort"
)

// Snapshot is a point-in-time copy of every instrument in a registry. It is
// a plain value: safe to retain, diff and serialize while the registry keeps
// moving.
//
// Both serializations are deterministic: WriteText sorts every section's
// names, and WriteJSON inherits encoding/json's sorted map keys plus the
// fixed struct field order, so two snapshots with equal instrument values
// render byte-identically — `-metrics text` dumps diff cleanly between
// runs. (Span history is not part of the snapshot; hierarchical traces
// live in internal/trace.)
type Snapshot struct {
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]float64        `json:"gauges"`
	Timers     map[string]TimerStats     `json:"timers"`
	Histograms map[string]HistogramStats `json:"histograms"`
}

// Snapshot captures the current state of the registry: a Histogram with
// no buckets goes under Timers, any other under Histograms. Nil-safe: a nil
// registry yields an empty snapshot. The copy is not atomic across
// instruments (each instrument is read consistently, but instruments are
// read one after another); deltas over a quiesced registry are exact.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Timers:     make(map[string]TimerStats),
		Histograms: make(map[string]HistogramStats),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters, gauges, histograms := maps.Clone(r.counters), maps.Clone(r.gauges), maps.Clone(r.histograms)
	r.mu.Unlock()

	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range histograms {
		if st := h.Stats(); len(st.Buckets) == 0 {
			s.Timers[k] = st.TimerStats
		} else {
			s.Histograms[k] = st
		}
	}
	return s
}

// Delta returns the change from prev to s. Counters are subtracted
// (instruments absent from prev count from zero) and gauges keep their
// current level (a gauge is a level, not an accumulation). Timers and
// histograms share one rule: count, sum and matching buckets are
// subtracted, Avg is the windowed Sum/Count, and Min, Max and ring
// Quantiles — which cannot be recovered for the window — carry the current
// values.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Timers:     make(map[string]TimerStats, len(s.Timers)),
		Histograms: make(map[string]HistogramStats, len(s.Histograms)),
	}
	for k, v := range s.Counters {
		d.Counters[k] = v - prev.Counters[k]
	}
	maps.Copy(d.Gauges, s.Gauges)
	for k, v := range s.Timers {
		p := HistogramStats{TimerStats: prev.Timers[k]}
		d.Timers[k] = HistogramStats{TimerStats: v}.delta(p).TimerStats
	}
	for k, v := range s.Histograms {
		d.Histograms[k] = v.delta(prev.Histograms[k])
	}
	return d
}

// WriteJSON serializes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText renders the snapshot as sorted human-readable lines.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, k := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "counter %-44s %d\n", k, s.Counters[k]); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "gauge   %-44s %g\n", k, s.Gauges[k]); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(s.Timers) {
		t := s.Timers[k]
		if _, err := fmt.Fprintf(w, "timer   %-44s count=%d sum=%.6gs avg=%.6gs min=%.6gs max=%.6gs\n",
			k, t.Count, t.Sum, t.Avg, t.Min, t.Max); err != nil {
			return err
		}
	}
	for _, k := range sortedKeys(s.Histograms) {
		h := s.Histograms[k]
		if _, err := fmt.Fprintf(w, "hist    %-44s count=%d sum=%.6gs avg=%.6gs min=%.6gs max=%.6gs buckets=%d\n",
			k, h.Count, h.Sum, h.Avg, h.Min, h.Max, len(h.Buckets)); err != nil {
			return err
		}
	}
	return nil
}

// sortedKeys returns m's names in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
