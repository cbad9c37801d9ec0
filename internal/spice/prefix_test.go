package spice

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"noisewave/internal/circuit"
	"noisewave/internal/device"
	"noisewave/internal/faultinject"
	"noisewave/internal/telemetry"
	"noisewave/internal/wave"
)

// prefixBench is the quiet-prefix suite's circuit: a driven victim line
// coupled to a driven aggressor line, received by an inverter chain, with
// both edge sources held quiet at build time as the experiments' benches
// are.
type prefixBench struct {
	ckt       *circuit.Circuit
	vic, aggr *circuit.VSource
}

func newPrefixBench(tech device.Tech) prefixBench {
	ckt := circuit.New()
	va, vb := ckt.Node("va"), ckt.Node("vb")
	fa, fb := ckt.Node("fa"), ckt.Node("fb")
	vdd := ckt.Node("vdd")
	out := ckt.Node("out")
	ckt.AddVSource("vdd", vdd, circuit.Ground, circuit.DCSource(tech.Vdd))
	vic := ckt.AddVSource("vic", va, circuit.Ground, circuit.DCSource(0))
	aggr := ckt.AddVSource("aggr", vb, circuit.Ground, circuit.DCSource(tech.Vdd))
	ckt.AddResistor(va, fa, 500)
	ckt.AddResistor(vb, fb, 700)
	ckt.AddCapacitor(fa, circuit.Ground, 20e-15)
	ckt.AddCapacitor(fb, circuit.Ground, 25e-15)
	ckt.AddCapacitor(fa, fb, 40e-15)
	ckt.AddInverter("u1", tech, 4, fa, out, vdd)
	ckt.AddInverter("u2", tech, 16, out, ckt.Node("out2"), vdd)
	return prefixBench{ckt: ckt, vic: vic, aggr: aggr}
}

// aim sets the victim (rising) and aggressor (falling) edges; a NaN time
// keeps that source quiet.
func (b prefixBench) aim(tech device.Tech, tVic, tAggr float64) {
	b.vic.Value, b.aggr.Value = circuit.DCSource(0), circuit.DCSource(tech.Vdd)
	if !math.IsNaN(tVic) {
		b.vic.Value = circuit.SlewRamp(tVic, 100e-12, tech.Vdd, wave.Rising)
	}
	if !math.IsNaN(tAggr) {
		b.aggr.Value = circuit.SlewRamp(tAggr, 80e-12, tech.Vdd, wave.Falling)
	}
}

const (
	prefixStep    = 2e-12
	prefixHorizon = 0.3e-9
)

// runFresh runs the aimed edges on a new circuit and simulator: no prefix,
// cold memo.
func runFresh(t *testing.T, o Options, tVic, tAggr, start, stop float64) *Result {
	t.Helper()
	tech := device.Default130()
	b := newPrefixBench(tech)
	b.aim(tech, tVic, tAggr)
	res, err := New(b.ckt, o).Run(context.Background(), start, stop)
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	return res
}

// sameRun requires two results to agree bit for bit: every time, every
// probe's every sample, the step trace and the recovery report.
func sameRun(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Time) != len(want.Time) {
		t.Fatalf("%s: %d samples, want %d", label, len(got.Time), len(want.Time))
	}
	for j := range want.Time {
		if math.Float64bits(got.Time[j]) != math.Float64bits(want.Time[j]) {
			t.Fatalf("%s: time[%d] %.17g, want %.17g", label, j, got.Time[j], want.Time[j])
		}
	}
	for i, name := range want.names {
		if got.names[i] != name {
			t.Fatalf("%s: probe %d is %q, want %q", label, i, got.names[i], name)
		}
		for j, v := range want.v[i] {
			if math.Float64bits(got.v[i][j]) != math.Float64bits(v) {
				t.Fatalf("%s: %s[%d] at t=%.6g: %.17g, want %.17g", label, name, j, want.Time[j], got.v[i][j], v)
			}
		}
	}
	if len(got.trace) != len(want.trace) {
		t.Fatalf("%s: %d trace entries, want %d", label, len(got.trace), len(want.trace))
	}
	for j := range want.trace {
		if got.trace[j] != want.trace[j] {
			t.Fatalf("%s: trace[%d] %+v, want %+v", label, j, got.trace[j], want.trace[j])
		}
	}
	if got.Recovery != want.Recovery {
		t.Fatalf("%s: recovery %v, want %v", label, got.Recovery, want.Recovery)
	}
}

// TestQuietPrefixBitIdentical drives one prefixed simulator through a
// series of alignments — edges after the horizon, an aggressor inside it,
// an aggressor that switched before t = 0 (a different DC point), one
// mid-ramp at t = 0, a stop inside the prefix, a different start — and
// requires every run to match a fresh simulator's bit for bit, while the
// counters show each run resumed exactly as far as it may.
func TestQuietPrefixBitIdentical(t *testing.T) {
	tech := device.Default130()
	b := newPrefixBench(tech)
	reg := telemetry.New()
	o := Options{Step: prefixStep, Probes: []string{"fa", "out"}}
	withReg := o
	withReg.Telemetry = reg
	sim := New(b.ckt, withReg)
	if err := sim.RecordPrefix(context.Background(), 0, prefixHorizon); err != nil {
		t.Fatal(err)
	}
	if sim.prefix == nil || len(sim.prefix.cps) < 2 {
		t.Fatal("no checkpoints recorded")
	}
	if got := reg.Counter("spice.transients").Value(); got != 1 {
		t.Errorf("recording counted %d transients, want 1", got)
	}
	nan := math.NaN()
	cases := []struct {
		name             string
		tVic, tAggr      float64
		start, stop      float64
		minSkip, maxSkip float64 // bounds on the resumed time, s; maxSkip < 0: no resume
	}{
		{"edges-after-horizon", 0.3e-9, 0.35e-9, 0, 1e-9, prefixHorizon - prefixStride*prefixStep - 1e-15, prefixHorizon},
		{"aggressor-inside", 0.3e-9, 0.1e-9, 0, 1e-9, 0.1e-9 - prefixStride*prefixStep - 1e-15, 0.1e-9},
		{"aggressor-switched-before-start", 0.3e-9, -0.2e-9, 0, 1e-9, 0, -1},
		{"aggressor-mid-ramp-at-start", 0.3e-9, -0.04e-9, 0, 1e-9, 0, -1},
		{"edge-at-first-step", 2e-12, nan, 0, 0.6e-9, 0, 0},
		{"stop-inside-prefix", nan, nan, 0, 0.1e-9, 0.1e-9 - prefixStride*prefixStep - 1e-15, 0.1e-9},
		{"quiet-past-horizon", nan, nan, 0, 0.5e-9, prefixHorizon - prefixStride*prefixStep - 1e-15, prefixHorizon},
		{"other-start", 0.3e-9, 0.35e-9, -0.05e-9, 1e-9, 0, -1},
		{"edges-after-horizon-again", 0.3e-9, 0.35e-9, 0, 1e-9, prefixHorizon - prefixStride*prefixStep - 1e-15, prefixHorizon},
	}
	for _, c := range cases {
		resumes0 := reg.Counter("spice.fastpath.prefix_resumes").Value()
		steps0 := reg.Counter("spice.fastpath.prefix_steps_reused").Value()
		b.aim(tech, c.tVic, c.tAggr)
		got, err := sim.Run(context.Background(), c.start, c.stop)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sameRun(t, c.name, got, runFresh(t, o, c.tVic, c.tAggr, c.start, c.stop))
		resumed := reg.Counter("spice.fastpath.prefix_resumes").Value() - resumes0
		skipped := float64(reg.Counter("spice.fastpath.prefix_steps_reused").Value()-steps0) * prefixStep
		switch {
		case c.maxSkip < 0:
			if resumed != 0 {
				t.Errorf("%s: resumed from the prefix, want a run from scratch", c.name)
			}
		case resumed != 1:
			t.Errorf("%s: %d resumes, want 1", c.name, resumed)
		case skipped < c.minSkip || skipped > c.maxSkip:
			t.Errorf("%s: resumed %.4g s in, want within [%.4g, %.4g] s", c.name, skipped, c.minSkip, c.maxSkip)
		}
	}
	// Neither the recording nor the runs wrote their window or context
	// into the options.
	if !reflect.DeepEqual(sim.opts, withReg.withDefaults()) {
		t.Errorf("options changed by the runs: %+v, want %+v", sim.opts, withReg.withDefaults())
	}
}

// TestQuietPrefixNotUsed covers the options under which a prefix must not
// be recorded or used: a fault injector, the slow path, a step trace and a
// canceled context. Each run must still match a fresh run bit for bit.
func TestQuietPrefixNotUsed(t *testing.T) {
	tech := device.Default130()
	base := Options{Step: prefixStep, Probes: []string{"out"}}
	for _, c := range []struct {
		name string
		opts func(Options) Options
	}{
		{"inject", func(o Options) Options { o.Inject = faultinject.New(faultinject.Config{}); return o }},
		{"no-fast-path", func(o Options) Options { o.NoFastPath = true; return o }},
		{"record-steps", func(o Options) Options { o.recordSteps = true; return o }},
	} {
		o := c.opts(base)
		b := newPrefixBench(tech)
		sim := New(b.ckt, o)
		if err := sim.RecordPrefix(context.Background(), 0, prefixHorizon); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if sim.prefix != nil {
			t.Fatalf("%s: prefix recorded", c.name)
		}
		b.aim(tech, 0.3e-9, 0.35e-9)
		got, err := sim.Run(context.Background(), 0, 0.8e-9)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sameRun(t, c.name, got, runFresh(t, c.opts(base), 0.3e-9, 0.35e-9, 0, 0.8e-9))
	}

	// A run whose context is already done starts from scratch, so the
	// cancellation surfaces at t = 0 exactly as without a prefix.
	b := newPrefixBench(tech)
	reg := telemetry.New()
	o := base
	o.Telemetry = reg
	sim := New(b.ckt, o)
	if err := sim.RecordPrefix(context.Background(), 0, prefixHorizon); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b.aim(tech, 0.3e-9, 0.35e-9)
	res, err := sim.Run(ctx, 0, 0.8e-9)
	if !errors.Is(err, telemetry.ErrCanceled) {
		t.Fatalf("canceled run: err = %v", err)
	}
	if res.Steps() != 1 || reg.Counter("spice.fastpath.prefix_resumes").Value() != 0 {
		t.Errorf("canceled run recorded %d samples, resumed %d times; want 1 sample from scratch",
			res.Steps(), reg.Counter("spice.fastpath.prefix_resumes").Value())
	}
}

// TestQuietPrefixRecordingHoldsSources: recording holds every source at
// its start value and leaves the circuit's sources as they were.
func TestQuietPrefixRecordingHoldsSources(t *testing.T) {
	tech := device.Default130()
	b := newPrefixBench(tech)
	b.aim(tech, 0.1e-9, 0.2e-9)
	vic, aggr := b.vic.Value, b.aggr.Value
	sim := New(b.ckt, Options{Step: prefixStep, Probes: []string{"out"}})
	if err := sim.RecordPrefix(context.Background(), 0, prefixHorizon); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.vic.Value, vic) || !reflect.DeepEqual(b.aggr.Value, aggr) {
		t.Error("recording left the sources changed")
	}
	p := sim.prefix
	if last := p.cps[len(p.cps)-1]; last.t > prefixHorizon || last.t < prefixHorizon-prefixStride*prefixStep {
		t.Errorf("last checkpoint at %.4g s, want within a stride of the %.4g s horizon", last.t, prefixHorizon)
	}
	// The edges sit inside the prefix, so this run resumes only before the
	// victim edge — and must still match a fresh run.
	got, err := sim.Run(context.Background(), 0, 0.6e-9)
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "edges-inside", got, runFresh(t, Options{Step: prefixStep, Probes: []string{"out"}}, 0.1e-9, 0.2e-9, 0, 0.6e-9))
	if err := sim.RecordPrefix(context.Background(), 0, 0); err == nil {
		t.Error("a horizon at the start was accepted")
	}
}
