package sta

import (
	"context"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"noisewave/internal/eqwave"
	"noisewave/internal/telemetry"
	"noisewave/internal/wave"
)

// TestSlackConstantAlongPathElmore is the forward/backward consistency
// check for the Elmore wire model: with wire parasitics annotated on every
// internal net, the backward required-time pass must charge the same wire
// delay and look up arc delays at the same wire-degraded transitions as the
// forward pass, so slack is identical (±1 fs) at every net along the
// reported critical path. In the "timer-switched" case the timer moves to
// IdealWire between the run and ComputeRequired: the backward pass must
// follow the run's model, not the timer's current one.
func TestSlackConstantAlongPathElmore(t *testing.T) {
	d := mustParse(t, `
design elchain
input a at=0ps slew=50ps
output y
output z
gate u1 INV A=a Y=n1
gate u2 INV A=n1 Y=n2
gate u3 BUF A=n2 Y=y
gate f1 INV A=n1 Y=z
netcap n1 120fF
netres n1 350
netcap n2 80fF
netres n2 200
`)
	for _, tc := range []struct {
		name  string
		after WireModel // the timer's model when ComputeRequired runs
	}{
		{"timer", ElmoreWire},
		{"timer-switched", IdealWire},
	} {
		timer := New(testLib(), d)
		timer.Wire = ElmoreWire
		res, err := timer.RunCtx(context.Background(), RunOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		timer.Wire = tc.after
		req, err := timer.ComputeRequired(res, map[string]float64{"y": 500e-12})
		if err != nil {
			t.Fatal(err)
		}
		net, edge, _, err := res.WorstOutput([]string{"y"})
		if err != nil {
			t.Fatal(err)
		}
		path, err := res.CriticalPath(net, edge)
		if err != nil {
			t.Fatal(err)
		}
		if len(path) < 4 {
			t.Fatalf("%s: path too short: %d steps", tc.name, len(path))
		}
		end, ok := req.Slack(res, net, edge)
		if !ok {
			t.Fatalf("%s: no endpoint slack", tc.name)
		}
		for _, step := range path {
			s, ok := req.Slack(res, step.Net, step.Edge)
			if !ok {
				t.Fatalf("%s: no slack at %s (%v)", tc.name, step.Net, step.Edge)
			}
			if math.Abs(s-end) > 1e-15 {
				t.Errorf("%s: slack not constant under ElmoreWire: %s (%v) = %g, endpoint = %g (Δ %g fs)",
					tc.name, step.Net, step.Edge, s, end, (s-end)*1e15)
			}
		}
	}
}

// TestSlackConstantAlongPathIdeal is the same invariant with the default
// (ideal) wire model — a regression guard that the backward-pass rework did
// not disturb the zero-wire-delay case.
func TestSlackConstantAlongPathIdeal(t *testing.T) {
	d := mustParse(t, `
design idchain
input a at=0ps slew=50ps
output y
gate u1 INV A=a Y=n1
gate u2 BUF A=n1 Y=n2
gate u3 INV A=n2 Y=y
`)
	timer := New(testLib(), d)
	res, err := timer.RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	req, err := timer.ComputeRequired(res, map[string]float64{"y": 200e-12})
	if err != nil {
		t.Fatal(err)
	}
	net, edge, _, err := res.WorstOutput([]string{"y"})
	if err != nil {
		t.Fatal(err)
	}
	path, err := res.CriticalPath(net, edge)
	if err != nil {
		t.Fatal(err)
	}
	end, _ := req.Slack(res, net, edge)
	for _, step := range path {
		s, ok := req.Slack(res, step.Net, step.Edge)
		if !ok {
			t.Fatalf("no slack at %s (%v)", step.Net, step.Edge)
		}
		if math.Abs(s-end) > 1e-15 {
			t.Errorf("slack not constant: %s (%v) = %g vs endpoint %g", step.Net, step.Edge, s, end)
		}
	}
}

// TestMultiFanoutElmoreSumsPinCaps checks the wireDelay call site: the
// Elmore delay of a net must be computed with the *summed* receiver pin
// caps, not a single receiver's — on a two-fanout net the arrivals must
// match the closed-form estimate with ΣCpins = 4 fF (two INV inputs).
func TestMultiFanoutElmoreSumsPinCaps(t *testing.T) {
	d := mustParse(t, `
design fanout
input a at=0ps slew=50ps
output y
output z
gate u1 INV A=a Y=n1
gate u2 INV A=n1 Y=y
gate f1 INV A=n1 Y=z
netcap n1 100fF
netres n1 400
`)
	timer := New(testLib(), d)
	timer.Wire = ElmoreWire
	res, err := timer.RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// testLib INV: rise 10 ps, fall 12 ps, flat tables (delay independent of
	// slew/load). a rising → n1 falling at 12 ps with 28 ps transition; wire
	// then adds its Elmore delay with ΣCpins = 2 fF (u2.A) + 2 fF (f1.A).
	wantDelay, _ := wireDelay(400, 100e-15, 4e-15, 28e-12)
	got := res.Nets["y"].Rise.Arrival
	want := 12e-12 + wantDelay + 10e-12
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("y rise arrival = %g, want %g (wire delay with summed pin caps)", got, want)
	}
	// A single receiver's pin cap would have produced a visibly smaller
	// delay — guard that the fix actually changed the number.
	oldDelay, _ := wireDelay(400, 100e-15, 2e-15, 28e-12)
	if math.Abs(wantDelay-oldDelay) < 1e-16 {
		t.Fatal("test design does not discriminate summed vs single pin caps")
	}
}

// TestComputeRequiredNoOutputPin: a gate without a Y pin is rejected when
// the design is compiled, with the message the map walk's backward pass
// reported; and ComputeRequired answers from the run's own compiled graph,
// so corrupting the design after the run leaves its answer unchanged.
func TestComputeRequiredNoOutputPin(t *testing.T) {
	const src = `
design ok
input a
output y
gate u1 INV A=a Y=y
`
	bad := mustParse(t, src)
	delete(bad.Gates[0].Pins, "Y")
	if _, err := New(testLib(), bad).RunCtx(context.Background(), RunOptions{}); err == nil {
		t.Fatal("RunCtx accepted a gate with no output pin Y")
	} else if got, want := err.Error(), "sta: gate u1 has no output pin Y"; got != want {
		t.Errorf("error = %q, want %q", got, want)
	}

	good := mustParse(t, src)
	timer := New(testLib(), good)
	res, err := timer.RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	constraints := map[string]float64{"y": 100e-12}
	want, err := timer.ComputeRequired(res, constraints)
	if err != nil {
		t.Fatal(err)
	}
	delete(good.Gates[0].Pins, "Y")
	got, err := timer.ComputeRequired(res, constraints)
	if err != nil {
		t.Fatalf("ComputeRequired after the design changed: %v", err)
	}
	requireSameRequired(t, want, got)
}

// TestCriticalPathCycleErrors: a back-pointer walk that never reaches a
// primary input must error out instead of returning a plausible-looking
// truncated path.
func TestCriticalPathCycleErrors(t *testing.T) {
	res := &Result{Nets: map[string]*NetTiming{
		"x": {Rise: PinTiming{Valid: true, FromNet: "y", FromEdge: wave.Rising, ViaGate: "g1"}},
		"y": {Rise: PinTiming{Valid: true, FromNet: "x", FromEdge: wave.Rising, ViaGate: "g2"}},
	}}
	if _, err := res.CriticalPath("x", wave.Rising); err == nil {
		t.Fatal("cyclic back-pointers returned a truncated path instead of an error")
	} else if !strings.Contains(err.Error(), "without reaching a primary input") {
		t.Errorf("error = %v, want the exceeded-steps message", err)
	}
}

// countingTechnique counts every fit its technique runs, whichever pass
// asks for it.
type countingTechnique struct {
	eqwave.Technique
	fits *atomic.Int64
}

func (c countingTechnique) Equivalent(in eqwave.Input) (wave.Ramp, error) {
	c.fits.Add(1)
	return c.Technique.Equivalent(in)
}

// TestNoiseConversionMemoized: the technique fit of an annotated net must
// run once per (net, edge) within a Timer run — further fanouts and the
// whole backward pass reuse the converted (arrival, transition), so the
// technique fits once and slacks are consistent with the forward arrivals.
func TestNoiseConversionMemoized(t *testing.T) {
	d := mustParse(t, `
design noisy
input a
output y
output z
gate u1 INV A=a Y=n1
gate u2 INV A=n1 Y=y
gate f1 BUF A=n1 Y=z
`)
	lib := testLib()
	mk := func(t0, full float64) *wave.Waveform {
		return wave.FromFunc(func(tt float64) float64 {
			u := (tt - t0) / full
			if u < 0 {
				u = 0
			}
			if u > 1 {
				u = 1
			}
			return 1.2 * u
		}, 0, t0+full+0.5e-9, 800)
	}
	nl := mk(0.5e-9, 0.2e-9)
	noisy := mk(0.8e-9, 0.2e-9)
	out := wave.FromFunc(func(tt float64) float64 {
		return 1.2 - nl.At(tt-30e-12)
	}, 0, 1.5e-9, 800)

	reg := telemetry.New()
	var fits atomic.Int64
	timer := New(lib, d)
	timer.Technique = countingTechnique{timer.Technique, &fits}
	timer.Annotate("n1", &NoiseAnnotation{
		Noisy: noisy, Noiseless: nl, NoiselessOut: out, Edge: wave.Rising,
	})
	res, err := timer.RunCtx(context.Background(), RunOptions{Workers: 1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	// n1 fans out to two gates; the forward pass alone must fit once.
	if got := reg.Counter("sta.noise_conversions").Value(); got != 1 {
		t.Errorf("forward pass ran %d conversions, want 1 (memoized across fanouts)", got)
	}
	if got := fits.Load(); got != 1 {
		t.Errorf("forward pass ran %d fits, want 1 (memoized across fanouts)", got)
	}
	if _, err := timer.ComputeRequired(res, map[string]float64{"y": 2e-9, "z": 2e-9}); err != nil {
		t.Fatal(err)
	}
	// The backward pass revisits the annotated net on every backward arc;
	// it must read the converted timing, never refit.
	if got := fits.Load(); got != 1 {
		t.Errorf("forward+backward ran %d fits, want 1 (backward pass must reuse the cache)", got)
	}
}

// TestSlackConstantWithNoiseAnnotation: with a noise-annotated net on the
// path, the backward pass sees the same converted (arrival, transition) the
// forward pass used, so slack stays constant from the annotated net to the
// endpoint.
func TestSlackConstantWithNoiseAnnotation(t *testing.T) {
	d := mustParse(t, `
design noisy2
input a
output y
gate u1 INV A=a Y=n1
gate u2 INV A=n1 Y=y
`)
	lib := testLib()
	mk := func(t0, full float64) *wave.Waveform {
		return wave.FromFunc(func(tt float64) float64 {
			u := (tt - t0) / full
			if u < 0 {
				u = 0
			}
			if u > 1 {
				u = 1
			}
			return 1.2 * u
		}, 0, t0+full+0.5e-9, 800)
	}
	nl := mk(0.5e-9, 0.2e-9)
	noisy := mk(0.8e-9, 0.2e-9)
	out := wave.FromFunc(func(tt float64) float64 {
		return 1.2 - nl.At(tt-30e-12)
	}, 0, 1.5e-9, 800)
	timer := New(lib, d)
	timer.Annotate("n1", &NoiseAnnotation{
		Noisy: noisy, Noiseless: nl, NoiselessOut: out, Edge: wave.Rising,
	})
	res, err := timer.RunCtx(context.Background(), RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	req, err := timer.ComputeRequired(res, map[string]float64{"y": 2e-9})
	if err != nil {
		t.Fatal(err)
	}
	// y's fall comes from n1's (annotated) rise: slack at both must match.
	sy, ok := req.Slack(res, "y", wave.Falling)
	if !ok {
		t.Fatal("no slack at y fall")
	}
	sn, ok := req.Slack(res, "n1", wave.Rising)
	if !ok {
		t.Fatal("no slack at n1 rise")
	}
	if math.Abs(sy-sn) > 1e-15 {
		t.Errorf("slack across the annotated net drifts: n1 %g vs y %g", sn, sy)
	}
}
