package telemetry

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

func TestLogBuckets(t *testing.T) {
	b := LogBuckets(1e-4, 100, 13)
	if len(b) != 13 {
		t.Fatalf("got %d bounds, want 13", len(b))
	}
	if b[0] != 1e-4 || b[12] != 100 {
		t.Errorf("endpoints = %g, %g; want 1e-4, 100", b[0], b[12])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %g <= %g", i, b[i], b[i-1])
		}
	}
	// Half-decade grid: every other bound is a power of ten.
	if got := b[2]; math.Abs(got-1e-3) > 1e-12 {
		t.Errorf("b[2] = %g, want ~1e-3", got)
	}
	if one := LogBuckets(1, 8, 1); len(one) != 1 || one[0] != 8 {
		t.Errorf("LogBuckets(1,8,1) = %v, want [8]", one)
	}
}

func TestHistogramObserve(t *testing.T) {
	r := New()
	h := r.HistogramWith("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	s := h.Stats()
	if s.Count != 5 || s.Min != 0.5 || s.Max != 500 {
		t.Fatalf("aggregate = %+v", s.TimerStats)
	}
	// le=1 catches 0.5 and the boundary value 1 (le is inclusive).
	wantCum := []int64{2, 3, 4}
	for i, b := range s.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket le=%g count=%d, want %d", b.UpperBound, b.Count, wantCum[i])
		}
	}
	// Same name returns the same instrument, through any constructor;
	// bounds don't move.
	if h2 := r.HistogramWith("h", []float64{42}); h2 != h {
		t.Error("second HistogramWith returned a different instrument")
	}
	if tm := r.Timer("h"); tm != h {
		t.Error("Timer returned a different instrument for a histogram's name")
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var r *Registry
	h := r.Histogram("nil")
	h.Observe(1)
	h.KeepSamples(4)
	h.Start()()
	if s := h.Samples(); s != nil {
		t.Errorf("nil histogram Samples = %v", s)
	}
	if st := h.Stats(); st.Count != 0 {
		t.Errorf("nil histogram Stats = %+v", st)
	}
}

func TestHistogramSamplesRing(t *testing.T) {
	h := newHistogram([]float64{1})
	h.KeepSamples(3)
	for i := 1; i <= 5; i++ {
		h.Observe(float64(i))
	}
	got := h.Samples()
	if len(got) != 3 {
		t.Fatalf("ring holds %d samples, want 3", len(got))
	}
	sum := 0.0
	for _, v := range got {
		sum += v
	}
	if sum != 3+4+5 {
		t.Errorf("ring samples = %v, want the last three observations", got)
	}
	if p := Quantile(got, 0.5); p != 4 {
		t.Errorf("p50 of ring = %g, want 4", p)
	}
}

func TestHistogramDelta(t *testing.T) {
	r := New()
	h := r.HistogramWith("d", []float64{1, 10})
	h.Observe(0.5)
	before := r.Snapshot()
	h.Observe(5)
	h.Observe(5)
	d := r.Snapshot().Delta(before)
	hs := d.Histograms["d"]
	if hs.Count != 2 || hs.Sum != 10 {
		t.Fatalf("delta aggregate = %+v", hs.TimerStats)
	}
	if hs.Buckets[0].Count != 0 || hs.Buckets[1].Count != 2 {
		t.Errorf("delta buckets = %+v", hs.Buckets)
	}

	// With a kept sample ring, timers and histograms take the same rule:
	// count and sum are the window's, while min, max and the ring
	// quantiles are the current instrument's.
	for _, kind := range []string{"timer", "histogram"} {
		r := New()
		var in *Histogram
		if kind == "timer" {
			in = r.Timer("ring")
		} else {
			in = r.HistogramWith("ring", []float64{1, 10})
		}
		in.KeepSamples(2)
		in.Observe(20)
		before := r.Snapshot()
		in.Observe(3)
		in.Observe(5)
		d := r.Snapshot().Delta(before)
		got := d.Timers["ring"]
		if kind == "histogram" {
			got = d.Histograms["ring"].TimerStats
			if b := d.Histograms["ring"].Buckets; b[0].Count != 0 || b[1].Count != 2 {
				t.Errorf("%s: delta buckets = %+v", kind, b)
			}
		}
		want := TimerStats{Count: 2, Sum: 8, Min: 3, Max: 20, Avg: 4,
			Quantiles: map[string]float64{"0.5": 3, "0.95": 5, "0.99": 5}}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: delta = %+v, want %+v", kind, got, want)
		}
	}
}

// BenchmarkRegistryObserve times the per-observation cost of a timer and a
// bucketed histogram: the registry lookup and Observe, as call sites that
// do not hoist the instrument pay it.
func BenchmarkRegistryObserve(b *testing.B) {
	r := New()
	b.Run("timer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Timer("bench.timer_seconds").Observe(1e-3)
		}
	})
	b.Run("histogram", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Histogram("bench.histogram_seconds").Observe(1e-3)
		}
	})
}

func TestHistogramConcurrent(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := r.Histogram("conc")
			h.KeepSamples(16)
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i%7) * 0.01)
			}
			h.Samples()
			h.Stats()
		}(w)
	}
	wg.Wait()
	if got := r.Histogram("conc").Stats().Count; got != 8000 {
		t.Errorf("concurrent count = %d, want 8000", got)
	}
}
