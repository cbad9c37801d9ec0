package httpserver

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"noisewave/internal/telemetry"
)

// promName sanitizes a dot-separated telemetry name into a Prometheus
// metric name: the "noisewave_" namespace prefix, dots (and any other
// character outside [a-zA-Z0-9_]) mapped to underscores.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("noisewave_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders a telemetry snapshot in the Prometheus text
// exposition format (version 0.0.4). Counters map to counter, gauges to
// gauge, timers (histograms without buckets) to a summary (quantile lines
// when a KeepSamples ring is retained, then _count/_sum) plus _min/_max
// gauges, and bucketed histograms to a true histogram family (cumulative
// _bucket lines with an explicit +Inf, then _sum/_count). The registry
// keeps one instrument per name, so each name declares one family. Output
// is sorted by source name, so two equal snapshots expose byte-identical
// pages — the same determinism contract as telemetry.Snapshot.WriteText.
func WritePrometheus(w io.Writer, s telemetry.Snapshot) error {
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		p := promName(k)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", p, p, s.Counters[k]); err != nil {
			return err
		}
	}
	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		p := promName(k)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", p, p, s.Gauges[k]); err != nil {
			return err
		}
	}
	names = names[:0]
	for k := range s.Timers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		p := promName(k)
		t := s.Timers[k]
		if _, err := fmt.Fprintf(w, "# TYPE %s summary\n", p); err != nil {
			return err
		}
		for _, q := range quantileKeys(t.Quantiles) {
			if _, err := fmt.Fprintf(w, "%s{quantile=\"%s\"} %g\n", p, q, t.Quantiles[q]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_count %d\n%s_sum %g\n", p, t.Count, p, t.Sum); err != nil {
			return err
		}
		// Min/max are not part of the summary type; expose them as
		// dedicated gauges so dashboards can bound the distribution.
		if t.Count > 0 {
			if _, err := fmt.Fprintf(w, "# TYPE %s_min gauge\n%s_min %g\n# TYPE %s_max gauge\n%s_max %g\n",
				p, p, t.Min, p, p, t.Max); err != nil {
				return err
			}
		}
	}
	names = names[:0]
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		p := promName(k)
		h := s.Histograms[k]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", p); err != nil {
			return err
		}
		for _, b := range h.Buckets {
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", p, b.UpperBound, b.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
			p, h.Count, p, h.Sum, p, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// quantileKeys returns the quantile labels in ascending numeric order
// ("0.5" < "0.95" < "0.99" happens to also be lexicographic for the fixed
// reporting set, but sorting keeps the exposition deterministic for any
// future keys).
func quantileKeys(q map[string]float64) []string {
	if len(q) == 0 {
		return nil
	}
	keys := make([]string, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
