package noisewave

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"noisewave/internal/charlib"
	"noisewave/internal/device"
	"noisewave/internal/eqwave"
	"noisewave/internal/experiments"
	"noisewave/internal/xtalk"
)

// The benchmark harness regenerates every evaluation artifact of the paper:
//
//	Table 1  -> BenchmarkTable1ConfigurationI / BenchmarkTable1ConfigurationII
//	            (full accuracy sweep at reduced case count per iteration;
//	            run cmd/repro for the 200-case numbers)
//	Figure 2 -> BenchmarkFigure2 (sensitivity + Γeff series generation)
//	§4.2     -> BenchmarkTechniqueFit/* (per-gate Γeff fit time per
//	            technique, P=35) and BenchmarkSGDPSampleSweep/P=* (the
//	            accuracy/run-time trade-off knob)
//	Figure 1 -> BenchmarkTestbenchTransient (one golden-reference transient
//	            of the coupled testbench)
//
// Ablation benches (design choices called out in DESIGN.md):
//
//	BenchmarkSGDPAblation/* — fit cost of SGDP variants (no remap, first
//	order only, no δ-shift), showing what each step of §3 costs.
type benchEnv struct {
	cfg   xtalk.Config
	in    eqwave.Input
	gate  *GateSim
	trueO *Waveform
}

var (
	benchOnce sync.Once
	benchErr  error
	env       benchEnv
)

// setupBench simulates one representative noisy case of Configuration I
// shared by all fitting benchmarks.
func setupBench(b *testing.B) *benchEnv {
	benchOnce.Do(func() {
		tech := device.Default130()
		cfg := xtalk.ConfigurationI(tech)
		const vs = 0.3e-9
		nlIn, nlOut, err := cfg.RunNoiselessCtx(context.Background(), vs)
		if err != nil {
			benchErr = err
			return
		}
		noisy, trueOut, err := cfg.RunCtx(context.Background(), vs, []float64{vs + 0.05e-9})
		if err != nil {
			benchErr = err
			return
		}
		env = benchEnv{
			cfg: cfg,
			in: eqwave.Input{
				Noisy: noisy, Noiseless: nlIn, NoiselessOut: nlOut,
				Vdd: tech.Vdd, Edge: cfg.VictimEdge, P: eqwave.DefaultP,
			},
			gate: NewInverterChainSim(tech,
				[]float64{cfg.ReceiverDrive, cfg.Load1Drive, cfg.Load2Drive}, cfg.Step),
			trueO: trueOut,
		}
	})
	if benchErr != nil {
		b.Fatalf("bench setup: %v", benchErr)
	}
	return &env
}

// benchTable1 runs a reduced-case Table 1 sweep per iteration.
func benchTable1(b *testing.B, cfg xtalk.Config) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(cfg, experiments.Table1Options{
			Cases: 10, Range: 1e-9, P: eqwave.DefaultP,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range res.Stats {
				b.Logf("%-5s max=%6.2fps avg=%5.2fps", s.Name, s.MaxAbs*1e12, s.AvgAbs*1e12)
			}
		}
	}
}

func BenchmarkTable1ConfigurationI(b *testing.B) {
	benchTable1(b, xtalk.ConfigurationI(device.Default130()))
}

func BenchmarkTable1ConfigurationII(b *testing.B) {
	benchTable1(b, xtalk.ConfigurationII(device.Default130()))
}

func BenchmarkFigure2(b *testing.B) {
	cfg := xtalk.ConfigurationI(device.Default130())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure2(cfg, experiments.Figure2Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTechniqueFit is the §4.2 run-time comparison: the per-gate cost
// of computing Γeff with each technique at P = 35.
func BenchmarkTechniqueFit(b *testing.B) {
	e := setupBench(b)
	for _, tech := range eqwave.All() {
		b.Run(tech.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tech.Equivalent(e.in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSGDPSampleSweep varies P (§4.2: "SGDP run-time can be reduced by
// using smaller P values").
func BenchmarkSGDPSampleSweep(b *testing.B) {
	e := setupBench(b)
	sgdp := eqwave.NewSGDP()
	for _, p := range []int{9, 17, 35, 71, 141} {
		in := e.in
		in.P = p
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sgdp.Equivalent(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSGDPAblation times the §3 pipeline variants.
func BenchmarkSGDPAblation(b *testing.B) {
	e := setupBench(b)
	variants := map[string]*eqwave.SGDP{
		"full":        eqwave.NewSGDP(),
		"first-order": {VoltageRemap: true, DeltaShift: true},
		"no-remap":    {SecondOrder: true, DeltaShift: true},
		"no-shift":    {VoltageRemap: true, SecondOrder: true},
	}
	for _, name := range []string{"full", "first-order", "no-remap", "no-shift"} {
		v := variants[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := v.Equivalent(e.in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGateEvaluation measures the transistor-level replay of Γeff
// through the receiver chain — the evaluation step shared by all
// techniques in the accuracy experiments.
func BenchmarkGateEvaluation(b *testing.B) {
	e := setupBench(b)
	gamma, err := eqwave.NewSGDP().Equivalent(e.in)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.gate.OutputForRampCtx(context.Background(), gamma, 0, 2.5e-9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTestbenchTransient measures one golden-reference transient of
// the full Figure 1 testbench (Configuration I).
func BenchmarkTestbenchTransient(b *testing.B) {
	cfg := xtalk.ConfigurationI(device.Default130())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		const vs = 0.3e-9
		if _, _, err := cfg.RunCtx(context.Background(), vs, []float64{vs + 0.05e-9}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompareTechniques measures the full per-case scoring pipeline
// (six fits + six gate evaluations) used by the Table 1 sweep.
func BenchmarkCompareTechniques(b *testing.B) {
	e := setupBench(b)
	techs := eqwave.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompareTechniquesWith(e.gate, e.in, e.trueO, CompareTechniquesOpts{Techniques: techs}); err != nil {
			b.Fatal(err)
		}
	}
}

// staLib caches a coarse characterized library for the STA scaling benches.
var (
	staLibOnce sync.Once
	staLib     *Library
	staLibErr  error
)

func staLibrary(b *testing.B) *Library {
	staLibOnce.Do(func() {
		staLib, staLibErr = Characterize(DefaultTech(), FastCharacterization())
	})
	if staLibErr != nil {
		b.Fatal(staLibErr)
	}
	return staLib
}

// BenchmarkSTAChain measures arrival propagation over inverter chains —
// the timer's per-gate cost (no noise conversion).
func BenchmarkSTAChain(b *testing.B) {
	lib := staLibrary(b)
	for _, n := range []int{10, 100, 1000} {
		d := GenerateChain("chain", n, []string{"INVX1", "INVX4"})
		b.Run(fmt.Sprintf("gates=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewTimer(lib, d).RunCtx(context.Background(), RunOptions{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSTATree measures the wide-graph case (2^depth inputs reduced by
// NAND2 levels) including worst-arrival selection at every node.
func BenchmarkSTATree(b *testing.B) {
	lib := staLibrary(b)
	for _, depth := range []int{4, 8} {
		d := GenerateTree("tree", depth, "NAND2X1")
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewTimer(lib, d).RunCtx(context.Background(), RunOptions{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCharacterizeCell measures one full slew×load characterization
// of a single inverter (the cost unit behind cmd/charlib).
func BenchmarkCharacterizeCell(b *testing.B) {
	tech := DefaultTech()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := charlib.Characterize(tech,
			[]device.Cell{device.Inverter(tech, 4)}, charlib.FastOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1ParallelSweep measures the sweep engine's scaling on a
// 40-case Table 1 sweep at 1, 2 and 4 workers (coarsened transient step so
// one iteration stays tractable). Each worker owns a private simulator, the
// cases are independent, and the statistics are bit-identical across worker
// counts, so on a 4-core machine workers=4 should deliver well above 1.8×
// the workers=1 throughput; on fewer cores the curve flattens accordingly.
func BenchmarkTable1ParallelSweep(b *testing.B) {
	cfg := xtalk.ConfigurationI(device.Default130())
	cfg.Step = 2e-12
	const cases = 40
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunTable1(cfg, experiments.Table1Options{
					Cases: cases, Range: 1e-9, P: eqwave.DefaultP,
					SweepOptions: experiments.SweepOptions{Workers: w},
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cases)*float64(b.N)/b.Elapsed().Seconds(), "cases/s")
		})
	}
}

// BenchmarkPushoutCase measures one reference noise-injection case (the
// unit of the delay-noise distribution sweep).
func BenchmarkPushoutCase(b *testing.B) {
	e := setupBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		const vs = 0.3e-9
		if _, _, err := e.cfg.RunCtx(context.Background(), vs, []float64{vs + 0.1e-9}); err != nil {
			b.Fatal(err)
		}
	}
}
