package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"noisewave/internal/eqwave"
	"noisewave/internal/liberty"
	"noisewave/internal/netgen"
	"noisewave/internal/netlist"
	"noisewave/internal/sta"
	"noisewave/internal/telemetry"
)

const (
	// staGates and staNoiseFrac size the sta-noisy design: the 10⁵-gate
	// mesh with SGDP annotations on about 1% of its nets.
	staGates     = 100000
	staNoiseFrac = 0.01
	// staSetupEvery spreads set-up repetitions through the run: one before
	// the first pass and one after every staSetupEvery measured passes.
	staSetupEvery = 2
)

// staFixture is the sta-noisy input: the mesh, the library and the
// annotated timer, with the time each part took to build.
type staFixture struct {
	design   *netlist.Design
	lib      *liberty.Library
	sites    []netgen.NoiseSite
	timer    *sta.Timer
	netgen   time.Duration
	annotate time.Duration
}

func staSetup(meshSeed, noiseSeed int64) (*staFixture, error) {
	f := &staFixture{}
	start := time.Now()
	cfg := netgen.DefaultConfig(staGates)
	cfg.Seed = meshSeed
	d, err := netgen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	f.design, f.lib = d, netgen.SyntheticLibrary()
	f.netgen = time.Since(start)

	start = time.Now()
	ncfg := cfg
	ncfg.Seed = noiseSeed
	f.sites = netgen.NoiseSites(ncfg, d, f.lib.Vdd, staNoiseFrac)
	f.timer = sta.New(f.lib, d)
	f.timer.Wire = sta.ElmoreWire
	for _, s := range f.sites {
		f.timer.Annotate(s.Net, &sta.NoiseAnnotation{
			Noisy: s.Noisy, Noiseless: s.Noiseless, NoiselessOut: s.NoiselessOut, Edge: s.Edge,
		})
	}
	f.annotate = time.Since(start)
	return f, nil
}

// staPass is one timed RunCtx call with its own registry.
type staPass struct {
	wall time.Duration
	res  *sta.Result
	snap telemetry.Snapshot
}

func staRun(t *sta.Timer, workers int) (staPass, error) {
	reg := telemetry.New()
	start := time.Now()
	res, err := t.RunCtx(context.Background(), sta.RunOptions{Workers: workers, Telemetry: reg})
	p := staPass{wall: time.Since(start), res: res, snap: reg.Snapshot()}
	return p, err
}

func runSTANoisy(r *run) error {
	var setups, netgenS, annotateS []float64
	setupRep := func() (*staFixture, error) {
		f, err := staSetup(r.opts.meshSeed, r.opts.noiseSeed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, (f.netgen + f.annotate).Seconds())
		netgenS = append(netgenS, f.netgen.Seconds())
		annotateS = append(annotateS, f.annotate.Seconds())
		runtime.GC()
		return f, nil
	}
	fx, err := setupRep()
	if err != nil {
		return err
	}
	fixed := r.opts.meshSeed == defaultMeshSeed && r.opts.noiseSeed == defaultNoiseSeed

	// The 1-worker pass is the bit-identity reference for an unmeasured
	// nproc-worker pass that warms the heap.
	ref, err := staRun(fx.timer, 1)
	if err != nil {
		return err
	}
	warm, err := staRun(fx.timer, r.opts.workers)
	if err != nil {
		return err
	}
	r.check(sameTiming(ref.res, warm.res), "the %d-worker pass differs from the 1-worker pass", r.opts.workers)
	refNet, refEdge, refAT, err := ref.res.WorstOutput(fx.design.Outputs)
	if err != nil {
		return err
	}
	r.countInputs = fmt.Sprintf("-mesh%d-noise%d", r.opts.meshSeed, r.opts.noiseSeed)
	r.counts["gates_timed"] = ref.snap.Counters["sta.gates_timed"]
	r.counts["noise_conversions"] = ref.snap.Counters["sta.noise_conversions"]
	r.counts["levels"] = int64(ref.snap.Gauges["sta.levels"])
	if fixed {
		r.check(math.Float64bits(refAT.Arrival) == math.Float64bits(staWorstArrival),
			"worst output arrival %.17g (%s %s), want %.17g", refAT.Arrival, refNet, refEdge, staWorstArrival)
		r.check(r.counts["noise_conversions"] == staNoiseConversions,
			"noise conversions %d, want %d", r.counts["noise_conversions"], staNoiseConversions)
	}

	ref.res, warm.res = nil, nil
	runtime.GC()

	budget := r.opts.seconds
	if r.opts.trace {
		budget /= 2 // the other half runs the traced passes
	}
	var passes []staPass
	var measured time.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var alloc uint64
	for measured.Seconds() < budget {
		p, err := staRun(fx.timer, r.opts.workers)
		r.attempted++
		if err != nil {
			r.failed++
			r.check(false, "pass %d: %v", len(passes), err)
			continue
		}
		runtime.ReadMemStats(&after)
		alloc += after.TotalAlloc - before.TotalAlloc
		measured += p.wall
		_, _, at, err := p.res.WorstOutput(fx.design.Outputs)
		r.check(err == nil && math.Float64bits(at.Arrival) == math.Float64bits(refAT.Arrival),
			"pass %d worst output arrival %.17g, 1-worker pass %.17g", len(passes), at.Arrival, refAT.Arrival)
		for k, name := range map[string]string{"gates_timed": "sta.gates_timed", "noise_conversions": "sta.noise_conversions"} {
			r.check(p.snap.Counters[name] == r.counts[k], "pass %d %s = %d, 1-worker pass %d",
				len(passes), name, p.snap.Counters[name], r.counts[k])
		}
		p.res = nil // keep one result alive at a time
		passes = append(passes, p)
		if !r.opts.trace && len(passes)%staSetupEvery == 0 {
			if _, err := setupRep(); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&before)
	}

	walls := make([]float64, len(passes))
	gates := 0.0
	for i, p := range passes {
		walls[i] = p.wall.Seconds()
		gates += float64(p.snap.Counters["sta.gates_timed"])
	}
	if r.opts.trace {
		return r.traceSTA(fx, median(walls), float64(alloc)/float64(len(passes)), netgenS, annotateS)
	}
	r.set("throughput_per_s", gates/measured.Seconds(), "1/s")
	r.set("setup_s", median(setups), "s")
	r.set("latency_p50_ms", 1e3*quantile(walls, 0.50), "ms")
	r.set("latency_p95_ms", 1e3*quantile(walls, 0.95), "ms")
	return nil
}

// traceSTA splits a pass into its layers: timing passes with and without
// the annotations, and SGDP timed directly over the annotation inputs.
// untraced is the median untraced pass time in seconds.
func (r *run) traceSTA(fx *staFixture, untraced, allocPerPass float64, netgenS, annotateS []float64) error {
	tr := newTracer()
	clean := sta.New(fx.lib, fx.design)
	clean.Wire = sta.ElmoreWire
	sgdp := eqwave.NewSGDP()
	var noisy, cleanS []float64
	var levels float64
	var gates, conv int64
	start := time.Now()
	for time.Since(start).Seconds() < r.opts.seconds/2 || len(noisy) == 0 {
		root := tr.begin("sta-noisy.iteration", -1)
		s := tr.begin("sta.run.noisy", root)
		p, err := staRun(fx.timer, r.opts.workers)
		tr.end(s)
		if err != nil {
			return err
		}
		noisy = append(noisy, p.wall.Seconds())
		gates, conv = p.snap.Counters["sta.gates_timed"], p.snap.Counters["sta.noise_conversions"]
		levels = p.snap.Gauges["sta.levels"]

		s = tr.begin("sta.run.clean", root)
		c, err := staRun(clean, r.opts.workers)
		tr.end(s)
		if err != nil {
			return err
		}
		cleanS = append(cleanS, c.wall.Seconds())

		for _, site := range fx.sites {
			f := tr.begin("eqwave.fit.SGDP", root)
			_, err := sgdp.Equivalent(eqwave.Input{Noisy: site.Noisy, Noiseless: site.Noiseless,
				NoiselessOut: site.NoiselessOut, Vdd: fx.lib.Vdd, Edge: site.Edge, P: eqwave.DefaultP})
			tr.end(f)
			if err != nil {
				return fmt.Errorf("SGDP on %s: %w", site.Net, err)
			}
		}
		tr.end(root)
	}
	iters := float64(len(noisy))
	self, count := tr.selfTime()
	fit := self["eqwave.fit.SGDP"]
	r.set("sta.clean_pass_s", median(cleanS), "s")
	r.set("sta.noise_s", median(noisy)-median(cleanS), "s")
	r.set("sta.gates_timed", float64(gates), "count")
	r.set("sta.levels", levels, "count")
	r.set("sta.noise_conversions", float64(conv), "count")
	r.set("setup.netgen_s", median(netgenS), "s")
	r.set("setup.annotate_s", median(annotateS), "s")
	r.set("eqwave.sgdp_ms", ms(fit)/float64(count["eqwave.fit.SGDP"]), "ms")
	r.set("eqwave.fit_ms", ms(fit)/iters, "ms")
	r.set("eqwave.fit_ms.SGDP", ms(fit)/iters, "ms")
	r.set("mem.alloc_mb", allocPerPass/(1<<20), "MB")
	r.set("trace.overhead_ratio", median(noisy)/untraced, "ratio")

	// STA as a service: the same timer behind the durable job service,
	// for the jobs and httpserver layers.
	sr, err := r.driveService(r.opts.seconds, tr)
	if err != nil {
		return fmt.Errorf("job service: %w", err)
	}
	r.setServiceLayers(sr)
	return r.writeTrace(tr)
}

// sameTiming reports whether two results agree bit for bit on every net.
func sameTiming(a, b *sta.Result) bool {
	if len(a.Nets) != len(b.Nets) {
		return false
	}
	same := func(x, y sta.PinTiming) bool {
		return x.Valid == y.Valid && x.FromNet == y.FromNet && x.FromEdge == y.FromEdge && x.ViaGate == y.ViaGate &&
			math.Float64bits(x.Arrival) == math.Float64bits(y.Arrival) &&
			math.Float64bits(x.Trans) == math.Float64bits(y.Trans) &&
			math.Float64bits(x.Early) == math.Float64bits(y.Early)
	}
	for name, x := range a.Nets {
		y, ok := b.Nets[name]
		if !ok || !same(x.Rise, y.Rise) || !same(x.Fall, y.Fall) {
			return false
		}
	}
	return true
}

// Fixed expected values for the default mesh and noise seeds.
const (
	staWorstArrival     = 1.5685032040117206e-08
	staNoiseConversions = 754
)
