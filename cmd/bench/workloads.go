package main

import (
	"context"
	"fmt"

	"noisewave/internal/circuit"
	"noisewave/internal/device"
	"noisewave/internal/experiments"
	"noisewave/internal/netgen"
	"noisewave/internal/netlist"
	"noisewave/internal/spice"
	"noisewave/internal/sta"
	"noisewave/internal/telemetry"
	"noisewave/internal/wave"
	"noisewave/internal/xtalk"
)

// workload is one pinned benchmark scenario. Parameters are fixed in code —
// never taken from flags — so BENCH_<name>.json files from different
// commits measure the same work and the -compare gate is meaningful.
type workload struct {
	name string
	// about is one line for -list and the JSON.
	about string
	// setup, if non-nil, runs once per measurement before the clock starts
	// (e.g. generating a benchmark netlist) so fixture construction never
	// pollutes the wall time.
	setup func(ctx context.Context) error
	run   func(ctx context.Context, reg *telemetry.Registry, workers int) error
}

// workloads returns the pinned scenarios, cheapest first.
//
//   - table1-small: the CI gate — Configuration I at a coarse step, 8
//     alignment cases, P=15. Seconds, not minutes.
//   - table1-full: the paper's Table 1 sweep on Configuration I (200
//     cases, P=35) at the production step.
//   - pushout: the delay-noise distribution on Configuration I (100
//     cases), which exercises the transient path without technique fits.
//   - spice-micro: the bare solver — repeated gate-replay transients on
//     one reused simulator, no sweep engine, no technique fits. Isolates
//     the Newton/assembly/LU hot path the solver fast path optimizes.
//   - sta-mesh: full-chip static timing on a pinned 10⁵-gate synthetic
//     mesh through the levelized timer (sta.Timer.RunCtx) at every worker
//     count, 1 included. Throughput is gates/s via the sta.gates_timed
//     counter.
func workloads() []workload {
	// sta-mesh fixture, built once per process by the workload's setup hook
	// (generation is excluded from the measured wall time).
	var meshDesign *netlist.Design
	meshSetup := func(context.Context) error {
		if meshDesign != nil {
			return nil
		}
		cfg := netgen.DefaultConfig(100000)
		cfg.Seed = 1
		d, err := netgen.Generate(cfg)
		if err != nil {
			return err
		}
		meshDesign = d
		return nil
	}

	return []workload{
		{
			name:  "spice-micro",
			about: "bare solver: 60 gate-replay transients, one reused simulator",
			run: func(ctx context.Context, reg *telemetry.Registry, workers int) error {
				_ = workers // single simulator; the solver path has no parallelism
				tech := device.Default130()
				ckt := circuit.New()
				in := ckt.Node("in")
				mid := ckt.Node("mid")
				out := ckt.Node("out")
				vdd := ckt.Node("vdd")
				ckt.AddVSource("vdd", vdd, circuit.Ground, circuit.DCSource(tech.Vdd))
				vin := ckt.AddVSource("vin", in, circuit.Ground, circuit.DCSource(0))
				ckt.AddInverter("u1", tech, 4, in, mid, vdd)
				ckt.AddInverter("u2", tech, 16, mid, out, vdd)
				ckt.AddInverter("u3", tech, 64, out, ckt.Node("out2"), vdd)
				sim := spice.New(ckt, spice.Options{
					Step: 1e-12, Probes: []string{"out"}, Telemetry: reg,
				})
				for i := 0; i < 60; i++ {
					edge := wave.Rising
					if i%2 == 1 {
						edge = wave.Falling
					}
					vin.Value = circuit.SlewRamp(0.2e-9, 150e-12, tech.Vdd, edge)
					if _, err := sim.Run(ctx, 0, 1.2e-9); err != nil {
						return err
					}
				}
				return nil
			},
		},
		{
			name:  "sta-mesh",
			about: "full-chip STA: 1e5-gate mesh, Elmore wires, levelized timer at each worker count",
			setup: meshSetup,
			run: func(ctx context.Context, reg *telemetry.Registry, workers int) error {
				timer := sta.New(netgen.SyntheticLibrary(), meshDesign)
				timer.Wire = sta.ElmoreWire
				_, err := timer.RunCtx(ctx, sta.RunOptions{Workers: workers, Telemetry: reg})
				return err
			},
		},
		{
			name:  "table1-small",
			about: "Table 1, config I, 8 cases, P=15, coarse step; work counts are for amd64",
			run: func(ctx context.Context, reg *telemetry.Registry, workers int) error {
				cfg := xtalk.ConfigurationI(device.Default130())
				cfg.Step = 2e-12
				_, err := experiments.RunTable1(cfg, experiments.Table1Options{
					Cases: 8, Range: 1e-9, P: 15,
					SweepOptions: experiments.SweepOptions{
						Workers: workers, Ctx: ctx, Telemetry: reg,
					},
				})
				return err
			},
		},
		{
			name:  "table1-full",
			about: "Table 1, config I, 200 cases, P=35, paper step; work counts are for amd64",
			run: func(ctx context.Context, reg *telemetry.Registry, workers int) error {
				cfg := xtalk.ConfigurationI(device.Default130())
				_, err := experiments.RunTable1(cfg, experiments.Table1Options{
					Cases: 200, Range: 1e-9, P: 35,
					SweepOptions: experiments.SweepOptions{
						Workers: workers, Ctx: ctx, Telemetry: reg,
					},
				})
				return err
			},
		},
		{
			name:  "pushout",
			about: "delay-noise distribution, config I, 100 cases",
			run: func(ctx context.Context, reg *telemetry.Registry, workers int) error {
				cfg := xtalk.ConfigurationI(device.Default130())
				cfg.Step = 2e-12
				_, err := experiments.RunPushout(cfg, experiments.PushoutOptions{
					Cases: 100, Range: 1e-9,
					SweepOptions: experiments.SweepOptions{
						Workers: workers, Ctx: ctx, Telemetry: reg,
					},
				})
				return err
			},
		},
	}
}

// findWorkload resolves a workload by name.
func findWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("bench: unknown workload %q (use -list)", name)
}
