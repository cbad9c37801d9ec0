package core

import (
	"context"
	"math"

	"noisewave/internal/telemetry"
	"noisewave/internal/wave"
)

// replayCache shares one transistor-level replay among the techniques of a
// case whose Γeff are bit-identical — SGDP's slope-collapse safeguard, for
// one, returns the WLS5 or P2 fit itself. The replay window is a function
// of Γeff and the case's reference (WindowFor), so equal ramps replay to
// equal outputs and errors; any other ramp gets its own replay.
//
// A cache serves a single CompareTechniquesWith call (one case, one
// goroutine), so the parallel and sequential sweeps stay bit-identical by
// construction.
type replayCache struct {
	ref      *wave.Waveform // the case's reference output
	entries  map[[4]uint64]replayEntry
	hits     int
	misses   int
	extended int // replays rerun to ref.End()
}

type replayEntry struct {
	out *wave.Waveform
	err error
}

func newReplayCache(ref *wave.Waveform) *replayCache {
	return &replayCache{ref: ref, entries: make(map[[4]uint64]replayEntry)}
}

// outputForRamp returns the gate response to r over its replay window,
// replaying only the first time the case sees r's bits. Errors are shared
// too: an unstable replay would fail identically on retry.
func (c *replayCache) outputForRamp(ctx context.Context, gate *GateSim, r wave.Ramp) (*wave.Waveform, error) {
	key := [4]uint64{math.Float64bits(r.A), math.Float64bits(r.B),
		math.Float64bits(r.VLow), math.Float64bits(r.VHigh)}
	if e, ok := c.entries[key]; ok {
		c.hits++
		return e.out, e.err
	}
	c.misses++
	out, err := c.replay(ctx, gate, r)
	c.entries[key] = replayEntry{out: out, err: err}
	return out, err
}

// replay runs one replay over WindowFor's window and, when its output has
// not settled and the reference record runs past the window, reruns it to
// the reference's end. Both runs share the start, DC point, step grid and
// breakpoints, so the first run's samples are the second's up to its final
// step; past the window the ramp is flat, so a settled output has no
// 0.5·Vdd crossing left to add.
func (c *replayCache) replay(ctx context.Context, gate *GateSim, r wave.Ramp) (*wave.Waveform, error) {
	start, stop := WindowFor(r, c.ref, 0.2e-9)
	out, err := gate.OutputForRampCtx(ctx, r, start, stop)
	if err != nil || c.ref.End() <= stop || settled(out, gate.Tech.Vdd) {
		return out, err
	}
	c.extended++
	return gate.OutputForRampCtx(ctx, r, start, c.ref.End())
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
	reg.Counter("core.replay_extended").Add(int64(c.extended))
}
