package core

import (
	"context"
	"fmt"

	"noisewave/internal/eqwave"
	"noisewave/internal/telemetry"
	"noisewave/internal/trace"
	"noisewave/internal/wave"
)

// TechniqueResult is one technique's prediction for one noise case.
type TechniqueResult struct {
	Name string
	// Gamma is the fitted equivalent linear waveform.
	Gamma wave.Ramp
	// EstOut is the gate output under Gamma.
	EstOut *wave.Waveform
	// EstArrival is the predicted output arrival (latest 0.5·Vdd crossing).
	EstArrival float64
	// ArrivalError is EstArrival − the reference output arrival, in
	// seconds (signed; positive = pessimistic for a late-arrival check).
	ArrivalError float64
	// Err is set when the technique could not produce a prediction (e.g.
	// WLS5 on non-overlapping transitions); the numeric fields are then
	// meaningless.
	Err error
}

// Comparison holds the reference timing and all technique results for one
// noise-injection case.
type Comparison struct {
	// TrueArrival is the reference output arrival from the golden
	// transient simulation of the noisy waveform.
	TrueArrival float64
	// TrueDelay is the reference 50%–50% gate delay.
	TrueDelay float64
	// Results has one entry per technique, in input order.
	Results []TechniqueResult
	// ReplayHits and ReplayMisses count Γeff replay-cache outcomes for
	// this case: techniques often emit near-identical equivalent
	// waveforms, and each hit is one transistor-level transient that was
	// not re-simulated.
	ReplayHits, ReplayMisses int
}

// CompareOptions parameterizes CompareTechniquesWith.
type CompareOptions struct {
	// Ctx, if non-nil, cancels the comparison: the technique loop stops
	// before the next fit and any in-flight replay transient stops at its
	// next time step, returning an error matching telemetry.ErrCanceled.
	Ctx context.Context
	// Techniques to evaluate; nil selects eqwave.All().
	Techniques []eqwave.Technique
	// Telemetry, if non-nil, receives per-technique fit timers
	// ("eqwave.fit_seconds.<name>"), the replay-cache hit/miss/eviction/
	// extension counters and the spice engine counters of the replays (via
	// the gate's registry, which this call temporarily sets when unset).
	Telemetry *telemetry.Registry
}

// CompareTechniquesWith computes Γeff with every configured technique,
// replays each Γeff through the gate backend, and scores the predicted
// output arrival against the reference noisy output.
//
// Replays are memoized within the case: techniques that emit
// near-identical ramps (quantized on slope, 50% crossing, rails and replay
// window — see replaycache.go) share one transistor-level transient. The
// Comparison reports the hit/miss counts, and opts.Telemetry (when set)
// accumulates them across cases.
//
// The reference input/output pair and the noiseless pair must share the
// same time base (the experiment drivers guarantee this by construction).
func CompareTechniquesWith(gate *GateSim, in eqwave.Input, trueOut *wave.Waveform, opts CompareOptions) (*Comparison, error) {
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	techs := opts.Techniques
	if techs == nil {
		techs = eqwave.All()
	}
	if gate.Telemetry == nil && opts.Telemetry != nil {
		defer func() { gate.Telemetry = nil }()
		gate.Telemetry = opts.Telemetry
	}
	trueArr, err := ArrivalAt(trueOut, in.Vdd)
	if err != nil {
		return nil, fmt.Errorf("core: reference output arrival: %w", err)
	}
	trueDelay, err := GateDelay(in.Noisy, trueOut, in.Vdd)
	if err != nil {
		return nil, fmt.Errorf("core: reference delay: %w", err)
	}
	cmp := &Comparison{TrueArrival: trueArr, TrueDelay: trueDelay}
	cache := newReplayCache(trueOut.End())
	defer cache.publish(opts.Telemetry)
	for _, tech := range techs {
		if ctx.Err() != nil {
			return nil, telemetry.Canceled(ctx, "core: comparison canceled before %s", tech.Name())
		}
		r := TechniqueResult{Name: tech.Name()}
		// One child span per technique: the Γeff fit and the (possibly
		// cache-served) replay nest under it, with cache outcome as events.
		tctx, tspan := trace.Start(ctx, "core.technique", trace.String("technique", tech.Name()))
		stopFit := opts.Telemetry.Timer("eqwave.fit_seconds." + tech.Name()).Start()
		_, fitSpan := trace.Start(tctx, "eqwave.fit")
		gamma, err := tech.Equivalent(in)
		fitSpan.End()
		stopFit()
		if err != nil {
			r.Err = err
			tspan.SetAttr(trace.String("error", err.Error()))
			tspan.End()
			cmp.Results = append(cmp.Results, r)
			continue
		}
		r.Gamma = gamma
		start, stop := WindowFor(gamma, trueOut, 0.2e-9)
		hitsBefore := cache.hits
		est, err := cache.outputForRamp(tctx, gate, gamma, start, stop)
		if cache.hits > hitsBefore {
			tspan.Event("core.replay.cache_hit")
		} else {
			tspan.Event("core.replay.cache_miss")
		}
		if err != nil {
			if ctx.Err() != nil {
				tspan.SetAttr(trace.String("error", "canceled"))
				tspan.End()
				return nil, telemetry.Canceled(ctx, "core: replay canceled during %s", tech.Name())
			}
			r.Err = err
			tspan.SetAttr(trace.String("error", err.Error()))
			tspan.End()
			cmp.Results = append(cmp.Results, r)
			continue
		}
		r.EstOut = est
		arr, err := ArrivalAt(est, in.Vdd)
		if err != nil {
			r.Err = fmt.Errorf("estimated output never crosses 0.5·Vdd: %w", err)
			tspan.SetAttr(trace.String("error", r.Err.Error()))
			tspan.End()
			cmp.Results = append(cmp.Results, r)
			continue
		}
		r.EstArrival = arr
		r.ArrivalError = arr - trueArr
		tspan.SetAttr(trace.Float("arrival_error_s", r.ArrivalError))
		tspan.End()
		cmp.Results = append(cmp.Results, r)
	}
	cmp.ReplayHits, cmp.ReplayMisses = cache.hits, cache.misses
	return cmp, nil
}

// Result returns the entry for a named technique.
func (c *Comparison) Result(name string) (TechniqueResult, bool) {
	for _, r := range c.Results {
		if r.Name == name {
			return r, true
		}
	}
	return TechniqueResult{}, false
}
