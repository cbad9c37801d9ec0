// Package telemetry is the observability and run-control layer of the
// simulation pipeline: a zero-dependency, concurrency-safe metrics registry
// (counters, gauges and timers with snapshot/delta semantics) and the
// cancellation sentinel the pipeline reports when a run is stopped by a
// context. Hierarchical span tracing lives in the sibling package
// internal/trace; this package stays purely aggregate.
//
// The package is designed for hot paths: every instrument is nil-safe, so
// instrumented code threads an optional *Registry unconditionally —
//
//	reg.Counter("spice.steps_accepted").Inc()
//
// is a no-op (a single nil check, no allocation) when reg is nil. Hot loops
// should hoist the instrument out of the loop: Counter/Gauge/Timer lookups
// take a registry-wide lock, while Add/Set/Observe on the returned
// instrument are lock-free or per-instrument.
//
// Metric names are dot-separated, lowercase, with the owning package as the
// first segment ("spice.newton_iterations", "sweep.queue_depth",
// "core.replay_hits"). EXPERIMENTS.md documents every name the pipeline
// emits.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named instruments. The zero value is not usable; call New.
// A nil *Registry is valid everywhere and turns every operation into a
// no-op, so instrumentation can be threaded through APIs unconditionally.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	timers     map[string]*Timer
	histograms map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		timers:     make(map[string]*Timer),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the named counter. Nil-safe: a nil
// registry returns a nil counter whose methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns (creating if needed) the named timer. Nil-safe.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{min: math.Inf(1), max: math.Inf(-1)}
		r.timers[name] = t
	}
	return t
}

// Counter is a monotonically increasing int64. Lock-free; safe for
// concurrent use; all methods are nil-receiver-safe.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 level (queue depth, pool size). Lock-free; safe for
// concurrent use; all methods are nil-receiver-safe.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the level.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add moves the level by d (compare-and-swap loop).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current level (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Timer aggregates duration (or any other) observations: count, sum, min
// and max. It doubles as a histogram-lite: Avg is Sum/Count, and the
// min/max pair bounds the distribution. A timer can additionally keep a
// bounded ring of raw samples (KeepSamples) for percentile reporting —
// off by default so hot solver timers stay allocation-lean. Safe for
// concurrent use; all methods are nil-receiver-safe.
type Timer struct {
	mu    sync.Mutex
	count int64
	sum   float64
	min   float64
	max   float64

	samples sampleRing // optional raw observations (KeepSamples)
}

// Observe records one measurement, in seconds by convention.
func (t *Timer) Observe(v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.count++
	t.sum += v
	if v < t.min {
		t.min = v
	}
	if v > t.max {
		t.max = v
	}
	t.samples.add(v)
	t.mu.Unlock()
}

// KeepSamples makes the timer retain its most recent n raw observations in
// a ring, enabling Samples/percentile reporting (the load test reads
// jobs.run_seconds this way). Resizing keeps the most recent samples that
// fit. n <= 0 disables retention and drops any samples held.
func (t *Timer) KeepSamples(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples.resize(n)
	t.mu.Unlock()
}

// Samples returns a copy of the retained raw observations, oldest first
// (nil unless KeepSamples enabled retention).
func (t *Timer) Samples() []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.samples.ordered()
}

// sampleRing holds the most recent observations of an instrument, up to
// cap(buf) of them; the zero value holds none and keeps none. The owning
// instrument's mutex guards it.
type sampleRing struct {
	buf  []float64
	next int // once the ring is full, the slot of the oldest sample
}

// add records v, overwriting the oldest sample once the ring is full. It
// never allocates.
func (r *sampleRing) add(v float64) {
	switch {
	case cap(r.buf) == 0:
	case len(r.buf) < cap(r.buf):
		r.buf = append(r.buf, v)
	default:
		r.buf[r.next] = v
		r.next = (r.next + 1) % len(r.buf)
	}
}

// ordered returns a copy of the held samples, oldest first (nil when the
// ring holds none).
func (r *sampleRing) ordered() []float64 {
	if len(r.buf) == 0 {
		return nil
	}
	out := make([]float64, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// resize makes the ring keep n samples, holding on to the most recent ones
// that fit; n <= 0 drops them all.
func (r *sampleRing) resize(n int) {
	if n <= 0 {
		*r = sampleRing{}
		return
	}
	if cap(r.buf) == n {
		return
	}
	held := r.ordered()
	if len(held) > n {
		held = held[len(held)-n:]
	}
	*r = sampleRing{buf: append(make([]float64, 0, n), held...)}
}

// Quantile returns the q-th quantile (0 <= q <= 1) of samples using the
// nearest-rank method on a sorted copy; NaN for an empty slice. Exported
// for latency reports (p50/p95/p99).
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	return nearestRank(sortedCopy(samples), q)
}

// nearestRank returns the q-th quantile of a non-empty sorted slice: the
// smallest sample with at least a q share of the samples at or below it,
// clamped to the first and last sample.
func nearestRank(sorted []float64, q float64) float64 {
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// Start begins a wall-clock measurement and returns the function that
// records it:
//
//	defer reg.Timer("spice.transient_seconds").Start()()
func (t *Timer) Start() func() {
	start := time.Now()
	return func() { t.Observe(time.Since(start).Seconds()) }
}

// Stats returns the aggregate view (zero stats for a nil timer). When the
// timer retains a sample ring (KeepSamples), the stats carry p50/p95/p99
// computed over the ring — these surface as summary quantile lines in the
// Prometheus exposition.
func (t *Timer) Stats() TimerStats {
	if t == nil {
		return TimerStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := timerStatsLocked(t.count, t.sum, t.min, t.max)
	if len(t.samples.buf) > 0 {
		s.Quantiles = quantileMap(t.samples.buf)
	}
	return s
}

// quantileMap computes the standard reporting quantiles over one sorted
// copy of the ring.
func quantileMap(samples []float64) map[string]float64 {
	s := sortedCopy(samples)
	return map[string]float64{"0.5": nearestRank(s, 0.5), "0.95": nearestRank(s, 0.95), "0.99": nearestRank(s, 0.99)}
}

func timerStatsLocked(count int64, sum, min, max float64) TimerStats {
	s := TimerStats{Count: count, Sum: sum}
	if count > 0 {
		s.Min, s.Max, s.Avg = min, max, sum/float64(count)
	}
	return s
}

// TimerStats is the exported aggregate of a Timer. Quantiles is populated
// (keys "0.5", "0.95", "0.99") only for timers with a KeepSamples ring;
// like Min/Max in Delta, quantiles are a property of the retained window,
// not of a diff.
type TimerStats struct {
	Count     int64              `json:"count"`
	Sum       float64            `json:"sum"`
	Min       float64            `json:"min"`
	Max       float64            `json:"max"`
	Avg       float64            `json:"avg"`
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
}
