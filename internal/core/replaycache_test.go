package core

import (
	"context"
	"math"
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

// TestCompareTechniquesReplayCache: techniques whose Γeff are bit-identical
// share one transistor-level replay, while a Γeff shifted by a mere 1e-17 s
// gets its own replay and its own arrival.
func TestCompareTechniquesReplayCache(t *testing.T) {
	tech := device.Default130()
	vdd := tech.Vdd
	gate := NewInverterChainSim(tech, []float64{1}, 1e-12)

	slope := vdd / 150e-12
	r1 := wave.RampThroughPoint(slope, 0.5e-9, vdd/2, 0, vdd)
	r2 := r1.Shifted(1e-17)

	// Synthetic reference pair: a rising input and a falling output, both
	// crossing vdd/2 so the reference arrival and delay are defined.
	noisy := r1.ToWaveform(0, 2e-9, 64)
	trueOut := wave.FromFunc(func(tt float64) float64 {
		return vdd - r1.Shifted(60e-12).At(tt)
	}, 0, 2e-9, 64)
	in := eqwave.Input{Noisy: noisy, Noiseless: noisy, NoiselessOut: trueOut, Vdd: vdd}

	cmp, err := CompareTechniquesWith(gate, in, trueOut, CompareOptions{Techniques: []eqwave.Technique{
		fixedRamp{"A", r1}, fixedRamp{"B", r1}, fixedRamp{"C", r2},
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
		t.Errorf("replays: %d misses, %d hits; want 2 misses, 1 hit",
			cmp.ReplayMisses, cmp.ReplayHits)
	}
	a, _ := cmp.Result("A")
	b, _ := cmp.Result("B")
	c, _ := cmp.Result("C")
	if a.EstOut != b.EstOut {
		t.Error("bit-identical ramps should share one replayed output")
	}
	if c.EstOut == a.EstOut {
		t.Error("a ramp shifted by 1e-17 s should get its own replay")
	}
	if math.Float64bits(c.EstArrival) == math.Float64bits(a.EstArrival) {
		t.Errorf("a ramp shifted by 1e-17 s should get its own arrival, both %.17g", a.EstArrival)
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
	reg := telemetry.New()
	gate.Telemetry = reg
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

	cmp, err := CompareTechniquesWith(gate, in, trueOut, CompareOptions{
		Techniques: []eqwave.Technique{fixedRamp{"A", r}},
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
