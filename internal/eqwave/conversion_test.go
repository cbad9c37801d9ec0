package eqwave

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"noisewave/internal/device"
	"noisewave/internal/netgen"
	"noisewave/internal/wave"
	"noisewave/internal/xtalk"
)

// conversionCase is one named technique input.
type conversionCase struct {
	name string
	in   Input
}

// meshSiteInputs returns the SGDP annotations netgen.NoiseSites places on
// 1% of a 10⁵-gate mesh — the sta-noisy benchmark's sites for mesh and
// noise seed seed.
func meshSiteInputs(t testing.TB, seed int64) []conversionCase {
	t.Helper()
	cfg := netgen.DefaultConfig(100000)
	cfg.Seed = seed
	d, err := netgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []conversionCase
	for _, s := range netgen.NoiseSites(cfg, d, vdd, 0.01) {
		out = append(out, conversionCase{
			name: fmt.Sprintf("mesh%d/%s", seed, s.Net),
			in: Input{Noisy: s.Noisy, Noiseless: s.Noiseless, NoiselessOut: s.NoiselessOut,
				Vdd: vdd, Edge: s.Edge, P: DefaultP},
		})
	}
	return out
}

// goldenInputs simulates the Table 1 testbenches (both configurations,
// victim rising and falling) at a few aggressor alignments. A 2 ps step
// keeps the test quick; the waveforms are still the golden transient's.
func goldenInputs(t testing.TB) []conversionCase {
	t.Helper()
	tech := device.Default130()
	const victimStart = 0.3e-9
	var out []conversionCase
	for _, base := range []xtalk.Config{xtalk.ConfigurationI(tech), xtalk.ConfigurationII(tech)} {
		for _, edge := range []wave.Edge{wave.Rising, wave.Falling} {
			cfg := base
			cfg.VictimEdge = edge
			cfg.Step = 2e-12
			nlIn, nlOut, err := cfg.RunNoiseless(victimStart)
			if err != nil {
				t.Fatal(err)
			}
			for _, off := range []float64{-0.5e-9, -0.2e-9, -0.05e-9, 0, 0.05e-9, 0.2e-9, 0.5e-9} {
				starts := make([]float64, cfg.Aggressors)
				for k := range starts {
					starts[k] = victimStart + off*float64(1-2*k) // later aggressors mirror the offset
				}
				noisy, _, err := cfg.Run(victimStart, starts)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, conversionCase{
					name: fmt.Sprintf("cfg%s/%v/off=%gps", cfg.Name, edge, off*1e12),
					in: Input{Noisy: noisy, Noiseless: nlIn, NoiselessOut: nlOut,
						Vdd: tech.Vdd, Edge: edge, P: DefaultP},
				})
			}
		}
	}
	return out
}

// syntheticInputs covers the paths the simulated inputs may not reach:
// non-overlapping transitions (SGDP's δ-shift), a delayed edge and
// glitched falling edges.
func syntheticInputs() []conversionCase {
	var out []conversionCase
	for _, edge := range []wave.Edge{wave.Rising, wave.Falling} {
		in := cleanInput(edge)
		out = append(out, conversionCase{fmt.Sprintf("clean/%v", edge), in})
		g := in
		amp := -0.25
		if edge == wave.Falling {
			amp = 0.25
		}
		g.Noisy = glitched(in.Noisy, 1.15e-9, 40e-12, amp)
		out = append(out, conversionCase{fmt.Sprintf("glitch/%v", edge), g})
		far := g
		far.NoiselessOut = invOut(1e-9, 0.4e-9, 3e-9, 0.2e-9, edge)
		out = append(out, conversionCase{fmt.Sprintf("nonoverlap/%v", edge), far})
	}
	late := cleanInput(wave.Rising)
	late.Noisy = rampWave(1.35e-9, 0.4e-9, wave.Rising)
	return append(out, conversionCase{"delayed", late})
}

// sameRamp reports whether two Γeff agree bit for bit.
func sameRamp(a, b wave.Ramp) bool {
	return math.Float64bits(a.A) == math.Float64bits(b.A) && math.Float64bits(a.B) == math.Float64bits(b.B) &&
		math.Float64bits(a.VLow) == math.Float64bits(b.VLow) && math.Float64bits(a.VHigh) == math.Float64bits(b.VHigh)
}

// sameBits reports whether two float slices agree bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestConversionsMatchLegacy: reading waveforms through wave.Sampler,
// sharing SGDP's noiseless critical region and scanning for the last
// crossing from the end must leave every number unchanged. On the
// sta-noisy mesh sites (seeds 1, 3 and 7), on golden Table 1 inputs of
// both configurations and edges, and on synthetic edge cases,
// ComputeSensitivity must match the pre-sampler copy field by field and
// every technique (plus the SGDP ablation variants) must match its
// pre-sampler Γeff bit for bit, failing exactly where the copy fails.
func TestConversionsMatchLegacy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the Table 1 testbenches and builds three 10⁵-gate meshes")
	}
	cases := syntheticInputs()
	cases = append(cases, goldenInputs(t)...)
	for _, seed := range []int64{1, 3, 7} {
		cases = append(cases, meshSiteInputs(t, seed)...)
	}
	techs := All()
	for _, v := range []func(*SGDP){
		func(s *SGDP) { s.SecondOrder = false },
		func(s *SGDP) { s.VoltageRemap = false },
		func(s *SGDP) { s.DeltaShift = false },
		func(s *SGDP) { s.NoSafeguard = true },
		func(s *SGDP) { s.ShiftGammaForward = true },
	} {
		s := NewSGDP()
		v(s)
		techs = append(techs, s)
	}

	fits, failures := 0, 0
	for _, c := range cases {
		in := c.in
		got, errGot := ComputeSensitivity(in.Noiseless, in.NoiselessOut, in.Vdd, in.Edge, 4*in.samples())
		want, errWant := legacySensitivity(in.Noiseless, in.NoiselessOut, in.Vdd, in.Edge, 4*in.samples())
		switch {
		case (errGot == nil) != (errWant == nil):
			t.Fatalf("%s: ComputeSensitivity error %v, pre-sampler copy %v", c.name, errGot, errWant)
		case errGot == nil:
			if !sameBits([]float64{got.TFirst, got.TLast}, []float64{want.TFirst, want.TLast}) ||
				!sameBits(got.T, want.T) || !sameBits(got.V, want.V) || !sameBits(got.Rho, want.Rho) ||
				!sameBits(got.DRhoDV, want.DRhoDV) || got.Edge != want.Edge {
				t.Fatalf("%s: ComputeSensitivity differs from the pre-sampler copy", c.name)
			}
		}
		for ti, tech := range techs {
			g, errG := tech.Equivalent(in)
			w, errW := legacyEquivalent(tech, in)
			if (errG == nil) != (errW == nil) {
				t.Fatalf("%s: technique %d (%s) error %v, pre-sampler copy %v", c.name, ti, tech.Name(), errG, errW)
			}
			if errG != nil {
				failures++
				if errors.Is(errW, wave.ErrNoCrossing) && !errors.Is(errG, wave.ErrNoCrossing) {
					t.Fatalf("%s: technique %d (%s) lost ErrNoCrossing: %v", c.name, ti, tech.Name(), errG)
				}
				continue
			}
			fits++
			if !sameRamp(g, w) {
				t.Fatalf("%s: technique %d (%s) Γeff %+v, pre-sampler copy %+v", c.name, ti, tech.Name(), g, w)
			}
		}
	}
	if fits < 10000 {
		t.Fatalf("only %d fits compared (%d failed on both sides)", fits, failures)
	}
	t.Logf("%d inputs, %d Γeff bit-identical, %d failing on both sides", len(cases), fits, failures)
}

// TestSGDPMeshSiteAllocation bounds what one SGDP conversion of an
// sta-noisy mesh site allocates: the samplers read the 512-sample
// waveforms in place, so only the fit grids and the sensitivity samples
// remain (31 KB for this site when ρ came from whole-waveform copies).
func TestSGDPMeshSiteAllocation(t *testing.T) {
	cfg := netgen.DefaultConfig(2000)
	d, err := netgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sites := netgen.NoiseSites(cfg, d, vdd, 0.01)
	if len(sites) == 0 {
		t.Fatal("no noise sites")
	}
	s := sites[0]
	in := Input{Noisy: s.Noisy, Noiseless: s.Noiseless, NoiselessOut: s.NoiselessOut, Vdd: vdd, Edge: s.Edge, P: DefaultP}
	sgdp := NewSGDP()
	if _, err := sgdp.Equivalent(in); err != nil {
		t.Fatal(err)
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := sgdp.Equivalent(in); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perFit := (after.TotalAlloc - before.TotalAlloc) / runs
	if perFit > 16<<10 {
		t.Errorf("one SGDP conversion allocates %d bytes, want ≤ 16 KB", perFit)
	}
	t.Logf("one SGDP conversion allocates %d bytes", perFit)
}
