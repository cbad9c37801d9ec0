package core

import (
	"context"
	"math"

	"noisewave/internal/telemetry"
	"noisewave/internal/wave"
)

// Quantization steps for the replay cache key. Two ramps whose 50% crossing
// times agree within a femtosecond and whose slopes agree within 1e-6 V/ps
// drive the receiver to outputs that differ by far less than the technique
// errors being measured (picoseconds), so replaying both would only redo
// the same transistor-level transient. The replay window is quantized at
// the same femtosecond grid.
const (
	replayTimeQuantum  = 1e-15 // s: crossing time and window bounds
	replaySlopeQuantum = 1e6   // V/s, i.e. 1e-6 V/ps
	replayVoltQuantum  = 1e-6  // V: saturation rails
)

// replayKey identifies a Γeff replay up to quantization: the ramp's slope,
// 50% crossing and rails, plus the simulation window.
type replayKey struct {
	slope, cross int64
	lo, hi       int64
	start, stop  int64
}

func quantize(x, q float64) int64 { return int64(math.Round(x / q)) }

func makeReplayKey(r wave.Ramp, start, stop float64) (replayKey, bool) {
	// Flat ramps have no crossing; never cache them (techniques reject
	// them anyway).
	cross, err := r.Arrival()
	if err != nil {
		return replayKey{}, false
	}
	return replayKey{
		slope: quantize(r.A, replaySlopeQuantum),
		cross: quantize(cross, replayTimeQuantum),
		lo:    quantize(r.VLow, replayVoltQuantum),
		hi:    quantize(r.VHigh, replayVoltQuantum),
		start: quantize(start, replayTimeQuantum),
		stop:  quantize(stop, replayTimeQuantum),
	}, true
}

// replayCache memoizes GateSim.OutputForRamp within one noise case. The
// techniques frequently emit near-identical equivalent waveforms — e.g.
// SGDP's safeguard falls back to the WLS5 fit, and P1/P2 coincide whenever
// the noisy 10%/50%/90% crossings are collinear — so the transistor-level
// replay transient, a case's largest cost after the golden transient, is
// simulated once per distinct (quantized) ramp.
//
// Replays run over WindowFor's window, which ends margin after the ramp
// saturates; replay reruns one whose output has not settled by then.
//
// A cache instance is confined to a single CompareTechniques call (one
// case, one goroutine): sharing across cases would be unsound under the
// sweep engine's worker pool and would let the memory footprint grow with
// the sweep, while per-case confinement keeps the parallel and sequential
// paths bit-identical by construction.
//
// The entry count is bounded (maxEntries, FIFO eviction) so a pathological
// technique set cannot grow the footprint; with the built-in six techniques
// a case never comes close to the bound, and the eviction counter staying
// at zero is itself a useful health signal in the telemetry snapshot.
type replayCache struct {
	entries    map[replayKey]replayEntry
	order      []replayKey // insertion order, for FIFO eviction
	maxEntries int
	refEnd     float64 // end of the case's reference record
	hits       int
	misses     int
	evictions  int
	extended   int // replays rerun to refEnd
}

type replayEntry struct {
	out *wave.Waveform
	err error
}

// defaultReplayCap bounds the per-case replay cache. Each technique
// contributes at most one distinct ramp per case, so the built-in set of
// six never evicts.
const defaultReplayCap = 64

// newReplayCache returns an empty cache for a case whose reference record
// ends at refEnd.
func newReplayCache(refEnd float64) *replayCache {
	return &replayCache{
		entries:    make(map[replayKey]replayEntry),
		maxEntries: defaultReplayCap,
		refEnd:     refEnd,
	}
}

// outputForRamp returns the gate response for the ramp over [start, stop],
// replaying through the simulator only on the first sight of a quantized
// key. Errors are cached too: an unstable replay would fail identically on
// retry.
func (c *replayCache) outputForRamp(ctx context.Context, gate *GateSim, r wave.Ramp, start, stop float64) (*wave.Waveform, error) {
	key, ok := makeReplayKey(r, start, stop)
	if !ok {
		c.misses++
		return c.replay(ctx, gate, r, start, stop)
	}
	if e, ok := c.entries[key]; ok {
		c.hits++
		return e.out, e.err
	}
	c.misses++
	out, err := c.replay(ctx, gate, r, start, stop)
	if len(c.entries) >= c.maxEntries && c.maxEntries > 0 {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
		c.evictions++
	}
	c.entries[key] = replayEntry{out: out, err: err}
	c.order = append(c.order, key)
	return out, err
}

// replay runs one replay over [start, stop] and, when its output has not
// settled and the reference record runs past stop, reruns it over
// [start, c.refEnd]. Both runs share the start, DC point, step grid and
// breakpoints, so the first run's samples are the second's up to its final
// step; past stop the ramp is flat, so a settled output has no 0.5·Vdd
// crossing left to add.
func (c *replayCache) replay(ctx context.Context, gate *GateSim, r wave.Ramp, start, stop float64) (*wave.Waveform, error) {
	out, err := gate.OutputForRampCtx(ctx, r, start, stop)
	if err != nil || c.refEnd <= stop || settled(out, gate.Tech.Vdd) {
		return out, err
	}
	c.extended++
	return gate.OutputForRampCtx(ctx, r, start, c.refEnd)
}

// settled reports whether a replayed output has finished switching: its
// last sample sits across 0.5·Vdd from its first and within 0.1·Vdd of a
// rail.
func settled(out *wave.Waveform, vdd float64) bool {
	first, last := out.V[0], out.V[len(out.V)-1]
	switch {
	case first > 0.5*vdd:
		return last <= 0.1*vdd
	case first < 0.5*vdd:
		return last >= 0.9*vdd
	}
	return false
}

// publish flushes the cache outcome counters to a registry (nil-safe).
func (c *replayCache) publish(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("core.replay_hits").Add(int64(c.hits))
	reg.Counter("core.replay_misses").Add(int64(c.misses))
	reg.Counter("core.replay_evictions").Add(int64(c.evictions))
	reg.Counter("core.replay_extended").Add(int64(c.extended))
}
