package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"noisewave/internal/device"
	"noisewave/internal/eqwave"
	"noisewave/internal/telemetry"
	"noisewave/internal/wave"
)

// fixedRamp is a stub technique that always emits the same Γeff,
// simulating techniques that converge to identical fits.
type fixedRamp struct {
	name string
	r    wave.Ramp
}

func (f fixedRamp) Name() string                               { return f.name }
func (f fixedRamp) Equivalent(eqwave.Input) (wave.Ramp, error) { return f.r, nil }

// TestReplayKeyQuantization pins the cache-key semantics: perturbations
// far below the quantization steps collapse to one key, anything at
// technique-error scale (picoseconds) does not, and flat ramps are never
// cacheable.
func TestReplayKeyQuantization(t *testing.T) {
	base := wave.NewRamp(8e9, 0.6-8e9*0.5e-9, 0, 1.2) // 50% crossing at 0.5 ns
	k0, ok := makeReplayKey(base, 0, 2e-9)
	if !ok {
		t.Fatal("base ramp not cacheable")
	}

	// Sub-quantum perturbation of the crossing: same key.
	near := base.Shifted(1e-17)
	k1, ok := makeReplayKey(near, 0, 2e-9)
	if !ok || k0 != k1 {
		t.Errorf("sub-femtosecond shift changed the key: %+v vs %+v", k0, k1)
	}

	// Picosecond-scale shift: different key.
	far := base.Shifted(1e-12)
	if k2, _ := makeReplayKey(far, 0, 2e-9); k0 == k2 {
		t.Error("1 ps shift should produce a distinct key")
	}

	// Slope change beyond the quantum: different key.
	steep := wave.NewRamp(base.A*1.01, base.B, 0, 1.2)
	if k3, _ := makeReplayKey(steep, 0, 2e-9); k0 == k3 {
		t.Error("1% slope change should produce a distinct key")
	}

	// A different replay window must not alias.
	if k4, _ := makeReplayKey(base, 0, 2.5e-9); k0 == k4 {
		t.Error("different stop time should produce a distinct key")
	}

	// Flat ramps have no crossing and are never cached.
	if _, ok := makeReplayKey(wave.Ramp{B: 0.6, VHigh: 1.2}, 0, 2e-9); ok {
		t.Error("flat ramp should not be cacheable")
	}
}

// TestCompareTechniquesReplayCache: two techniques emitting Γeff within
// the quantization tolerance must share one transistor-level replay, and
// the shared result must be bit-identical for both.
func TestCompareTechniquesReplayCache(t *testing.T) {
	tech := device.Default130()
	vdd := tech.Vdd
	gate := NewInverterChainSim(tech, []float64{1}, 1e-12)

	slope := vdd / 150e-12
	r1 := wave.RampThroughPoint(slope, 0.5e-9, vdd/2, 0, vdd)
	r2 := r1.Shifted(1e-17)  // within one femtosecond bucket of r1
	r3 := r1.Shifted(20e-12) // clearly distinct case

	// Synthetic reference pair: a rising input and a falling output, both
	// crossing vdd/2 so the reference arrival and delay are defined.
	noisy := r1.ToWaveform(0, 2e-9, 64)
	trueOut := wave.FromFunc(func(tt float64) float64 {
		return vdd - r1.Shifted(60e-12).At(tt)
	}, 0, 2e-9, 64)
	in := eqwave.Input{Noisy: noisy, Noiseless: noisy, NoiselessOut: trueOut, Vdd: vdd}

	cmp, err := CompareTechniquesWith(gate, in, trueOut, CompareOptions{Techniques: []eqwave.Technique{
		fixedRamp{"A", r1}, fixedRamp{"B", r2}, fixedRamp{"C", r3},
	}})
	if err != nil {
		t.Fatalf("CompareTechniquesWith: %v", err)
	}
	for _, r := range cmp.Results {
		if r.Err != nil {
			t.Fatalf("technique %s failed: %v", r.Name, r.Err)
		}
	}
	if cmp.ReplayMisses != 2 || cmp.ReplayHits != 1 {
		t.Errorf("replay cache: %d misses, %d hits; want 2 misses, 1 hit",
			cmp.ReplayMisses, cmp.ReplayHits)
	}
	a, _ := cmp.Result("A")
	b, _ := cmp.Result("B")
	c, _ := cmp.Result("C")
	if !reflect.DeepEqual(a.EstOut, b.EstOut) || a.EstArrival != b.EstArrival {
		t.Error("near-identical ramps should share one replayed output")
	}
	if math.Abs(c.EstArrival-a.EstArrival) < 1e-12 {
		t.Errorf("distinct ramp C should produce a distinct arrival (A %.4g, C %.4g)",
			a.EstArrival, c.EstArrival)
	}
}

// TestReplayExtendsUnsettledOutput: a weak gate under a heavy load is still
// switching when the trimmed window ends (0.706 ns, output near 0.775 V, no
// crossing yet), so the replay must rerun to the reference's end and report
// the arrival a full-window replay gives, bit for bit.
func TestReplayExtendsUnsettledOutput(t *testing.T) {
	tech := device.Default130()
	vdd := tech.Vdd
	gate := NewInverterChainSim(tech, []float64{0.5, 64}, 1e-12)
	r := wave.RampThroughPoint(0.8*vdd/10e-12, 0.5e-9, vdd/2, 0, vdd) // 10 ps 10–90%
	noisy := r.ToWaveform(0, 3e-9, 64)
	trueOut := wave.FromFunc(func(tt float64) float64 {
		return vdd - r.Shifted(300e-12).At(tt)
	}, 0, 3e-9, 64)
	in := eqwave.Input{Noisy: noisy, Noiseless: noisy, NoiselessOut: trueOut, Vdd: vdd}

	start, stop := WindowFor(r, trueOut, 0.2e-9)
	trimmed, err := gate.OutputForRampCtx(context.Background(), r, start, stop)
	if err != nil {
		t.Fatal(err)
	}
	if settled(trimmed, vdd) {
		t.Fatalf("output settled by %g s; the fixture no longer exercises the guard", stop)
	}
	full, err := gate.OutputForRampCtx(context.Background(), r, start, trueOut.End())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ArrivalAt(full, vdd)
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.New()
	cmp, err := CompareTechniquesWith(gate, in, trueOut, CompareOptions{
		Techniques: []eqwave.Technique{fixedRamp{"A", r}}, Telemetry: reg,
	})
	if err != nil {
		t.Fatalf("CompareTechniquesWith: %v", err)
	}
	res, _ := cmp.Result("A")
	if res.Err != nil {
		t.Fatalf("technique A failed: %v", res.Err)
	}
	if math.Float64bits(res.EstArrival) != math.Float64bits(want) {
		t.Errorf("arrival %.17g, want the full-window %.17g", res.EstArrival, want)
	}
	if res.EstOut.End() != trueOut.End() {
		t.Errorf("replay ends at %g, want the reference's end %g", res.EstOut.End(), trueOut.End())
	}
	if got := reg.Snapshot().Counters["core.replay_extended"]; got != 1 {
		t.Errorf("core.replay_extended = %d, want 1", got)
	}
}

// TestSettled pins the settle rule on both edge directions: the last
// sample must sit across 0.5·Vdd from the first and within 0.1·Vdd of a
// rail.
func TestSettled(t *testing.T) {
	const vdd = 1.2
	for _, c := range []struct {
		first, last float64
		want        bool
	}{
		{1.2, 0.05, true},   // fell to the low rail
		{1.2, 0.2, false},   // crossed, still 0.2 V off the rail
		{1.2, 1.1, false},   // never crossed
		{0, 1.15, true},     // rose to the high rail
		{0, 0.9, false},     // crossed, short of the rail
		{0.6, 1.2, false},   // started on 0.5·Vdd: no side to cross from
		{0.02, 0.01, false}, // stayed low
	} {
		w := wave.MustNew([]float64{0, 1e-9}, []float64{c.first, c.last})
		if got := settled(w, vdd); got != c.want {
			t.Errorf("settled(%g → %g) = %v, want %v", c.first, c.last, got, c.want)
		}
	}
}
