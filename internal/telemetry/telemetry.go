// Package telemetry is the observability and run-control layer of the
// simulation pipeline: a zero-dependency, concurrency-safe metrics registry
// (counters, gauges and histograms with snapshot/delta semantics) and the
// cancellation sentinel the pipeline reports when a run is stopped by a
// context. Hierarchical span tracing lives in the sibling package
// internal/trace; this package stays purely aggregate.
//
// Latency has one instrument, the Histogram. A timer is a Histogram with
// no buckets (Registry.Timer): it keeps count, sum, min, max and an
// optional sample ring, and Snapshot files it under Timers rather than
// Histograms. Timers and histograms share one name map, so a name is one
// instrument whichever constructor registers it first.
//
// The package is designed for hot paths: every instrument is nil-safe, so
// instrumented code threads an optional *Registry unconditionally —
//
//	reg.Counter("spice.steps_accepted").Inc()
//
// is a no-op (a single nil check, no allocation) when reg is nil. Hot loops
// should hoist the instrument out of the loop: Counter/Gauge/Timer/Histogram
// lookups take a registry-wide lock, while Add/Set/Observe on the returned
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
)

// Registry holds named instruments. The zero value is not usable; call New.
// A nil *Registry is valid everywhere and turns every operation into a
// no-op, so instrumentation can be threaded through APIs unconditionally.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram // timers too: one name, one instrument
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
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

// quantileMap computes the standard reporting quantiles over one sorted
// copy of the ring.
func quantileMap(samples []float64) map[string]float64 {
	s := sortedCopy(samples)
	return map[string]float64{"0.5": nearestRank(s, 0.5), "0.95": nearestRank(s, 0.95), "0.99": nearestRank(s, 0.99)}
}

// TimerStats is the aggregate every Histogram keeps, and all that a timer
// (a Histogram with no buckets) exports. Quantiles is populated (keys
// "0.5", "0.95", "0.99") only for instruments with a KeepSamples ring;
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
