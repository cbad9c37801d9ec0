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

// DefaultLatencyBounds spans 100 µs to 100 s in half-decade steps — wide
// enough for both a sub-millisecond cache-hit job and a multi-minute
// full-chip sweep. Shared by every duration histogram unless the
// instrumentation site picks its own grid via HistogramWith.
func DefaultLatencyBounds() []float64 { return LogBuckets(1e-4, 100, 13) }

// IterationBounds is the power-of-two grid for count-shaped histograms
// (Newton iterations per run): 1, 2, 4, … 2^20.
func IterationBounds() []float64 { return LogBuckets(1, 1<<20, 21) }

// Histogram returns (creating if needed) the named histogram with the
// default latency bounds. Nil-safe: a nil registry returns a nil histogram
// whose methods are no-ops.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramWith(name, nil)
}

// HistogramWith returns (creating if needed) the named histogram. On first
// creation the given bounds become the fixed bucket grid (nil means
// DefaultLatencyBounds); later calls return the existing instrument
// unchanged, so the first registration wins — bounds are part of the
// instrument's identity and never move once observations exist.
func (r *Registry) HistogramWith(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		if bounds == nil {
			bounds = DefaultLatencyBounds()
		}
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Histogram aggregates observations into fixed log-spaced buckets alongside
// the same count/sum/min/max aggregate a Timer keeps, so it can replace a
// Timer at any call site (Observe, Start, KeepSamples, Samples all match).
// Unlike a Timer it preserves the shape of the distribution: per-bucket
// counts are exported through Snapshot and rendered as a true Prometheus
// histogram. Safe for concurrent use; all methods are nil-receiver-safe.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // sorted upper bounds; immutable after construction
	counts []int64   // len(bounds)+1; last slot is the +Inf overflow
	count  int64
	sum    float64
	min    float64
	max    float64

	samples sampleRing // optional raw observations (KeepSamples)
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
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
// histograms (count-shaped grids observe plain counts).
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
// records it, mirroring Timer.Start:
//
//	defer reg.Histogram("jobs.run_seconds").Start()()
func (h *Histogram) Start() func() {
	start := time.Now()
	return func() { h.Observe(time.Since(start).Seconds()) }
}

// KeepSamples makes the histogram retain its most recent n raw observations
// in a ring for exact-percentile reporting (the load test reads
// jobs.run_seconds this way). Resizing keeps the most recent samples that
// fit. n <= 0 disables retention and drops any samples held.
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
func (h *Histogram) Stats() HistogramStats {
	if h == nil {
		return HistogramStats{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramStats{
		TimerStats: timerStatsLocked(h.count, h.sum, h.min, h.max),
		Buckets:    make([]Bucket, len(h.bounds)),
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
// TimerStats plus cumulative buckets. Cumulative counts make stats from
// shards with identical grids mergeable by plain addition (Merge).
type HistogramStats struct {
	TimerStats
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Merge combines two stats with identical bucket grids (bucket-wise and
// aggregate-wise addition); it returns s unchanged when other is empty and
// other when s is empty. Mismatched grids panic — merging histograms with
// different resolutions silently would corrupt both. It is kept until
// ROADMAP item 10 settles which instruments merge per-job profiles.
func (s HistogramStats) Merge(other HistogramStats) HistogramStats {
	if other.Count == 0 {
		return s
	}
	if s.Count == 0 {
		return other
	}
	if len(s.Buckets) != len(other.Buckets) {
		panic("telemetry: merging histograms with different bucket grids")
	}
	out := HistogramStats{
		TimerStats: TimerStats{
			Count: s.Count + other.Count,
			Sum:   s.Sum + other.Sum,
			Min:   math.Min(s.Min, other.Min),
			Max:   math.Max(s.Max, other.Max),
		},
		Buckets: make([]Bucket, len(s.Buckets)),
	}
	if out.Count > 0 {
		out.Avg = out.Sum / float64(out.Count)
	}
	for i := range s.Buckets {
		if s.Buckets[i].UpperBound != other.Buckets[i].UpperBound {
			panic("telemetry: merging histograms with different bucket grids")
		}
		out.Buckets[i] = Bucket{
			UpperBound: s.Buckets[i].UpperBound,
			Count:      s.Buckets[i].Count + other.Buckets[i].Count,
		}
	}
	return out
}
