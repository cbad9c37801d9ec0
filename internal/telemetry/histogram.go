package telemetry

import (
	"math"
	"sync"
	"time"
)

// LogBuckets returns n log-spaced bucket upper bounds from lo to hi
// (inclusive, geometric progression). It is the canonical way to build
// histogram bounds: latency histograms span microseconds to minutes, and a
// geometric grid keeps relative resolution constant across that range.
// Panics on invalid arguments so misconfigured instruments fail at
// registration, not at scrape time.
func LogBuckets(lo, hi float64, n int) []float64 {
	if n < 1 || lo <= 0 || hi < lo {
		panic("telemetry: LogBuckets requires n >= 1 and 0 < lo <= hi")
	}
	bounds := make([]float64, n)
	if n == 1 {
		bounds[0] = hi
		return bounds
	}
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	v := lo
	for i := range bounds {
		bounds[i] = v
		v *= ratio
	}
	bounds[n-1] = hi // pin the endpoint against float drift
	return bounds
}

// latencyBounds spans 100 µs to 100 s in half-decade steps — wide enough
// for both a sub-millisecond cache-hit job and a multi-minute full-chip
// sweep. Every Histogram gets it unless the site picks its own grid via
// HistogramWith.
var latencyBounds = LogBuckets(1e-4, 100, 13)

// IterationBounds is the power-of-two grid for count-shaped histograms
// (Newton iterations per run): 1, 2, 4, … 2^20.
func IterationBounds() []float64 { return LogBuckets(1, 1<<20, 21) }

// Timer returns (creating if needed) the named Histogram with no buckets:
// count, sum, min, max and an optional sample ring, filed under
// Snapshot.Timers. Nil-safe: a nil registry returns a nil histogram whose
// methods are no-ops.
func (r *Registry) Timer(name string) *Histogram { return r.HistogramWith(name, nil) }

// Histogram returns (creating if needed) the named histogram with the
// default latency bounds (100 µs to 100 s, half-decade steps). Nil-safe.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramWith(name, latencyBounds)
}

// HistogramWith returns (creating if needed) the named histogram. On first
// creation the given bounds become the fixed bucket grid (nil means no
// buckets, as Timer); later calls return the existing instrument
// unchanged, so the first registration of a name wins, through Timer,
// Histogram or HistogramWith alike — bounds are part of the instrument's
// identity and never move once observations exist.
func (r *Registry) HistogramWith(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Histogram aggregates observations into count, sum, min and max and, when
// it has bounds, into fixed buckets that preserve the shape of the
// distribution: per-bucket counts are exported through Snapshot and
// rendered as a true Prometheus histogram. With no bounds it is a timer.
// Either kind can keep a bounded ring of raw samples (KeepSamples) for
// percentile reporting — off by default so hot solver timers stay
// allocation-lean. Safe for concurrent use; all methods are
// nil-receiver-safe.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // sorted upper bounds (none for a timer); immutable
	counts []int64   // len(bounds)+1; last slot is the +Inf overflow
	count  int64
	sum    float64
	min    float64
	max    float64

	samples sampleRing // optional raw observations (KeepSamples)
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic("telemetry: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds: b,
		counts: make([]int64, len(b)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Observe records one measurement, in seconds by convention for latency
// instruments (count-shaped grids observe plain counts).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	// Binary search for the first bound >= v; the overflow slot catches the
	// rest. Bucket grids are short (≤ ~21), but the search keeps Observe
	// O(log n) regardless of grid size.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo]++
	h.samples.add(v)
	h.mu.Unlock()
}

// Start begins a wall-clock measurement and returns the function that
// records it:
//
//	defer reg.Timer("spice.transient_seconds").Start()()
func (h *Histogram) Start() func() {
	start := time.Now()
	return func() { h.Observe(time.Since(start).Seconds()) }
}

// KeepSamples makes the instrument retain its most recent n raw
// observations in a ring for exact-percentile reporting (the load test
// reads jobs.run_seconds this way). Resizing keeps the most recent samples
// that fit. n <= 0 disables retention and drops any samples held.
func (h *Histogram) KeepSamples(n int) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.samples.resize(n)
	h.mu.Unlock()
}

// Samples returns a copy of the retained raw observations, oldest first
// (nil unless KeepSamples enabled retention).
func (h *Histogram) Samples() []float64 {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.samples.ordered()
}

// Stats returns the exported aggregate (zero stats for a nil histogram).
// When the instrument retains a sample ring (KeepSamples), the stats carry
// p50/p95/p99 computed over the ring; a timer's surface as summary
// quantile lines in the Prometheus exposition. Buckets is empty for a
// timer.
func (h *Histogram) Stats() HistogramStats {
	if h == nil {
		return HistogramStats{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramStats{
		TimerStats: TimerStats{Count: h.count, Sum: h.sum},
		Buckets:    make([]Bucket, len(h.bounds)),
	}
	if h.count > 0 {
		s.Min, s.Max, s.Avg = h.min, h.max, h.sum/float64(h.count)
	}
	if len(h.samples.buf) > 0 {
		s.Quantiles = quantileMap(h.samples.buf)
	}
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i]
		s.Buckets[i] = Bucket{UpperBound: b, Count: cum}
	}
	return s
}

// Bucket is one cumulative histogram bucket: Count observations were <=
// UpperBound. The implicit +Inf bucket is the total Count of the stats.
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// HistogramStats is the exported aggregate of a Histogram: the familiar
// TimerStats plus cumulative buckets (none for a timer).
type HistogramStats struct {
	TimerStats
	Buckets []Bucket `json:"buckets,omitempty"`
}

// delta returns the change from prev to s: count and sum are subtracted,
// buckets too where prev has the same bound at the same slot, and Avg is
// the windowed Sum/Count. Min, Max and Quantiles cannot be recovered for
// the window, so they carry s's values.
func (s HistogramStats) delta(prev HistogramStats) HistogramStats {
	d := s
	d.Count, d.Sum, d.Avg = s.Count-prev.Count, s.Sum-prev.Sum, 0
	if d.Count > 0 {
		d.Avg = d.Sum / float64(d.Count)
	}
	d.Buckets = make([]Bucket, len(s.Buckets))
	for i, b := range s.Buckets {
		d.Buckets[i] = b
		if i < len(prev.Buckets) && prev.Buckets[i].UpperBound == b.UpperBound {
			d.Buckets[i].Count = b.Count - prev.Buckets[i].Count
		}
	}
	return d
}
