package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"noisewave/internal/core"
	"noisewave/internal/device"
	"noisewave/internal/eqwave"
	"noisewave/internal/experiments"
	"noisewave/internal/telemetry"
	"noisewave/internal/wave"
	"noisewave/internal/xtalk"
)

// victimStart is the victim edge time experiments.RunTable1 uses; the
// traced pass re-drives each case at the same edge times.
const victimStart = 0.3e-9

// table1SetupReps is how many times each set-up chunk rebuilds the fixtures;
// chunks run before the first pass and after every pass, so setup_s is a
// median over repetitions spread through the run.
const table1SetupReps = 8

// table1Pass is one run of the full Table 1: both configurations.
type table1Pass struct {
	wall    time.Duration
	results []*experiments.Table1Result
	snaps   []telemetry.Snapshot
	caseSec []float64
	alloc   uint64
}

func runTable1(r *run) error {
	tech := device.Default130()
	cfgs := []xtalk.Config{xtalk.ConfigurationI(tech), xtalk.ConfigurationII(tech)}
	var setups []float64
	setupChunk := func() error {
		for i := 0; i < table1SetupReps; i++ {
			d, err := table1Setup(cfgs, r.opts.workers)
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
		return nil
	}
	if !r.opts.trace {
		if err := setupChunk(); err != nil {
			return err
		}
	}

	// Whole passes until the measured time reaches --seconds: Table 1 is
	// only checkable whole.
	var passes []*table1Pass
	var measured time.Duration
	for len(passes) == 0 || (!r.opts.trace && measured.Seconds() < r.opts.seconds) {
		p, err := table1Run(cfgs, r.opts.workers)
		if err != nil {
			return err
		}
		passes = append(passes, p)
		measured += p.wall
		if !r.opts.trace {
			if err := setupChunk(); err != nil {
				return err
			}
		}
	}

	var caseSec []float64
	for i, p := range passes {
		r.checkTable1(p, i)
		caseSec = append(caseSec, p.caseSec...)
	}
	r.counts = table1Counts(passes[0])
	for i, p := range passes[1:] {
		for k, v := range table1Counts(p) {
			r.check(v == r.counts[k], "pass %d work count %s = %d, pass 0 = %d", i+1, k, v, r.counts[k])
		}
	}

	if r.opts.trace {
		return r.traceTable1(cfgs, passes[0])
	}
	cases := float64(len(caseSec))
	r.set("throughput_per_s", cases/measured.Seconds(), "1/s")
	r.set("setup_s", median(setups), "s")
	r.set("latency_p50_ms", 1e3*quantile(caseSec, 0.50), "ms")
	r.set("latency_p95_ms", 1e3*quantile(caseSec, 0.95), "ms")
	return nil
}

// table1Setup builds what a Table 1 run needs before its first case, for
// both configurations: one testbench and gate simulator per worker and the
// noiseless reference.
func table1Setup(cfgs []xtalk.Config, workers int) (time.Duration, error) {
	start := time.Now()
	for _, cfg := range cfgs {
		for w := 0; w < workers; w++ {
			if _, err := xtalk.NewBench(cfg); err != nil {
				return 0, err
			}
			core.NewInverterChainSim(cfg.Tech, []float64{cfg.ReceiverDrive, cfg.Load1Drive, cfg.Load2Drive}, cfg.Step)
		}
		if _, _, err := cfg.RunNoiselessCtx(context.Background(), victimStart); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// table1Run runs Table 1 once, both configurations, at the library's
// default execution settings.
func table1Run(cfgs []xtalk.Config, workers int) (*table1Pass, error) {
	p := &table1Pass{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, cfg := range cfgs {
		reg := telemetry.New()
		reg.Timer("experiments.table1.case_seconds").KeepSamples(1 << 12)
		opts := experiments.DefaultTable1Options()
		opts.Workers, opts.Telemetry = workers, reg
		start := time.Now()
		res, err := experiments.RunTable1(cfg, opts)
		p.wall += time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("table 1, configuration %s: %w", cfg.Name, err)
		}
		p.results = append(p.results, res)
		p.snaps = append(p.snaps, reg.Snapshot())
		p.caseSec = append(p.caseSec, reg.Timer("experiments.table1.case_seconds").Samples()...)
	}
	runtime.ReadMemStats(&after)
	p.alloc = after.TotalAlloc - before.TotalAlloc
	return p, nil
}

// table1Counts returns a pass's noise-free work counts per configuration.
func table1Counts(p *table1Pass) map[string]int64 {
	out := map[string]int64{}
	for i, s := range p.snaps {
		name := p.results[i].Config.Name
		out["newton_iterations."+name] = s.Counters["spice.newton_iterations"]
		out["lu_factorizations."+name] = s.Counters["spice.fastpath.refactors"]
		out["transients."+name] = s.Counters["spice.transients"]
	}
	return out
}

// checkTable1 compares a pass with the published-run values and the
// paper's orderings.
func (r *run) checkTable1(p *table1Pass, pass int) {
	stats := map[string]map[string]experiments.TechniqueStats{}
	for _, res := range p.results {
		cases := experiments.DefaultTable1Options().Cases
		r.attempted += int64(cases)
		r.failed += int64(res.Excluded)
		r.check(res.Failures == nil, "pass %d config %s: %d quarantined cases", pass, res.Config.Name, res.Failures.Quarantined())
		byName := map[string]experiments.TechniqueStats{}
		for _, st := range res.Stats {
			byName[st.Name] = st
			r.check(st.N == cases && st.Failures == 0,
				"pass %d config %s %s: scored %d of %d cases, %d failures", pass, res.Config.Name, st.Name, st.N, cases, st.Failures)
			want, ok := table1Expected[res.Config.Name][st.Name]
			r.check(ok, "no expected values for config %s %s", res.Config.Name, st.Name)
			const fs = 1e-15
			r.check(math.Abs(st.MaxAbs-want[0]) <= fs && math.Abs(st.AvgAbs-want[1]) <= fs,
				"pass %d config %s %s: max %.17g avg %.17g, want %.17g %.17g (±1 fs)",
				pass, res.Config.Name, st.Name, st.MaxAbs, st.AvgAbs, want[0], want[1])
		}
		stats[res.Config.Name] = byName
	}
	i, ii := stats["I"], stats["II"]
	for name, st := range i {
		r.check(name == "SGDP" || i["SGDP"].AvgAbs < st.AvgAbs,
			"pass %d: SGDP Cfg I avg %g is not below %s's %g", pass, i["SGDP"].AvgAbs, name, st.AvgAbs)
	}
	for cfg, st := range stats {
		r.check(st["SGDP"].MaxAbs < st["WLS5"].MaxAbs && st["SGDP"].AvgAbs < st["WLS5"].AvgAbs,
			"pass %d: SGDP does not beat WLS5 in config %s", pass, cfg)
	}
	r.check(ii["WLS5"].MaxAbs > 1e-9, "pass %d: WLS5 Cfg II max %g is not above 1 ns", pass, ii["WLS5"].MaxAbs)
}

// traceTable1 is the traced pass: it re-drives every case of the untraced
// pass u through the layers' public calls — the golden transient, each
// technique's fit and the gate replay — timing each call as a span, checks
// that every technique error equals the untraced record bit for bit, and
// reports the per-layer metrics per case.
func (r *run) traceTable1(cfgs []xtalk.Config, u *table1Pass) error {
	tr := newTracer()
	// Instrumented like RunTable1, so both passes time the same work.
	reg := telemetry.New()
	techs := eqwave.All()
	start := time.Now()
	var mismatches int
	for ci, cfg := range cfgs {
		res := u.results[ci]
		cfg.Telemetry = reg
		root := tr.begin("table1.config."+cfg.Name, -1)
		nl := tr.begin("xtalk.noiseless", root)
		nlIn, nlOut, err := cfg.RunNoiselessCtx(context.Background(), victimStart)
		tr.end(nl)
		if err != nil {
			return err
		}
		jobs := make(chan int)
		var mu sync.Mutex
		var wg sync.WaitGroup
		errs := make([]error, r.opts.workers)
		for w := 0; w < r.opts.workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				bench, err := xtalk.NewBench(cfg)
				if err != nil {
					errs[w] = err
					for range jobs {
					}
					return
				}
				gate := core.NewInverterChainSim(cfg.Tech,
					[]float64{cfg.ReceiverDrive, cfg.Load1Drive, cfg.Load2Drive}, cfg.Step)
				gate.Telemetry = reg
				for i := range jobs {
					n, err := traceCase(tr, root, bench, gate, cfg, techs, res.Cases[i], nlIn, nlOut)
					if err != nil && errs[w] == nil {
						errs[w] = fmt.Errorf("case %d: %w", i, err)
					}
					mu.Lock()
					mismatches += n
					mu.Unlock()
				}
			}(w)
		}
		for i := range res.Cases {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		tr.end(root)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	traced := time.Since(start)
	r.check(mismatches == 0, "traced pass: %d technique errors differ from the untraced RunTable1 records", mismatches)

	cases := float64(len(u.caseSec))
	self, count := tr.selfTime()
	perCase := func(name string) float64 { return ms(self[name]) / cases }
	r.set("xtalk.golden_ms", perCase("xtalk.golden"), "ms")
	r.set("core.replay_ms", perCase("core.replay"), "ms")
	fit := 0.0
	for _, t := range techs {
		v := perCase("eqwave.fit." + t.Name())
		r.set("eqwave.fit_ms."+t.Name(), v, "ms")
		fit += v
	}
	r.set("eqwave.fit_ms", fit, "ms")
	r.set("eqwave.sgdp_ms", ms(self["eqwave.fit.SGDP"])/float64(count["eqwave.fit.SGDP"]), "ms")

	c := map[string]int64{}
	var caseSum float64
	for _, s := range u.snaps {
		for k, v := range s.Counters {
			c[k] += v
		}
		caseSum += s.Timers["experiments.table1.case_seconds"].Sum
	}
	r.set("spice.newton_iterations", float64(c["spice.newton_iterations"])/cases, "count")
	r.set("spice.transients", float64(c["spice.transients"])/cases, "count")
	r.set("spice.lu_factorizations", float64(c["spice.fastpath.refactors"])/cases, "count")
	r.set("spice.lu_reuse_ratio", float64(c["spice.fastpath.lu_reuses"])/
		float64(c["spice.fastpath.lu_reuses"]+c["spice.fastpath.refactors"]), "ratio")
	r.set("spice.steps_rejected", float64(c["spice.steps_rejected"])/cases, "count")
	rungs := c["spice.recovery.step_cuts"] + c["spice.recovery.gmin_ramps"] +
		c["spice.recovery.be_fallbacks"] + c["spice.recovery.exhausted"]
	r.set("spice.recovery_rungs", float64(rungs)/cases, "count")
	// Worker time the untraced sweep spent outside any case: scheduling,
	// per-worker set-up and the noiseless reference.
	r.set("sweep.overhead_ms", 1e3*(u.wall.Seconds()*float64(r.opts.workers)-caseSum)/cases, "ms")
	r.set("sweep.case_retries", float64(c["sweep.case_retries"])/cases, "count")
	r.set("mem.alloc_mb", float64(u.alloc)/(1<<20)/cases, "MB")
	r.set("trace.overhead_ratio", traced.Seconds()/u.wall.Seconds(), "ratio")
	return r.writeTrace(tr)
}

// traceCase re-drives one case and returns how many technique errors
// differ from the untraced record.
func traceCase(tr *tracer, parent int, bench *xtalk.Bench, gate *core.GateSim, cfg xtalk.Config,
	techs []eqwave.Technique, rec experiments.CaseRecord, nlIn, nlOut *wave.Waveform) (int, error) {

	ctx := context.Background()
	root := tr.begin("table1.case", parent)
	defer tr.end(root)
	starts := make([]float64, len(rec.Offsets))
	for k, off := range rec.Offsets {
		starts[k] = victimStart + off
	}
	g := tr.begin("xtalk.golden", root)
	nIn, nOut, _, err := bench.RunReportCtx(ctx, victimStart, starts)
	tr.end(g)
	if err != nil {
		return 0, err
	}
	vdd := cfg.Tech.Vdd
	trueArr, err := core.ArrivalAt(nOut, vdd)
	if err != nil {
		return 0, err
	}
	in := eqwave.Input{Noisy: nIn, Noiseless: nlIn, NoiselessOut: nlOut,
		Vdd: vdd, Edge: cfg.VictimEdge, P: eqwave.DefaultP}
	// Production replays each distinct ramp of a case once; so does this
	// pass, keyed on the exact ramp and window.
	type replayKey struct {
		r           wave.Ramp
		start, stop float64
	}
	replays := map[replayKey]*wave.Waveform{}
	mismatches := 0
	for _, t := range techs {
		f := tr.begin("eqwave.fit."+t.Name(), root)
		gamma, err := t.Equivalent(in)
		tr.end(f)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", t.Name(), err)
		}
		start, stop := core.WindowFor(gamma, nOut, 0.2e-9)
		key := replayKey{gamma, start, stop}
		est, ok := replays[key]
		if !ok {
			rp := tr.begin("core.replay", root)
			est, err = gate.OutputForRampCtx(ctx, gamma, start, stop)
			tr.end(rp)
			if err != nil {
				return 0, fmt.Errorf("%s replay: %w", t.Name(), err)
			}
			replays[key] = est
		}
		arr, err := core.ArrivalAt(est, vdd)
		if err != nil {
			return 0, err
		}
		if want, ok := rec.Errors[t.Name()]; !ok || math.Float64bits(arr-trueArr) != math.Float64bits(want) {
			mismatches++
		}
	}
	return mismatches, nil
}

// writeTrace saves the traced run's spans and prints the layer map.
func (r *run) writeTrace(tr *tracer) error {
	printLayerMap()
	return tr.write(filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", r.opts.workload, r.opts.seed)))
}

// table1Expected holds each technique's (max, avg) absolute arrival error
// in seconds for the published Table 1 run, per configuration.
var table1Expected = map[string]map[string][2]float64{
	"I": {
		"P1":   {6.6809597666440336e-12, 4.3771242612702949e-12},
		"P2":   {3.1886546358860252e-11, 1.3219225612764047e-11},
		"LSF3": {5.981860752111798e-11, 2.6078608520957451e-11},
		"E4":   {3.3772299815885092e-11, 1.9719921133507788e-11},
		"WLS5": {8.1389961409111989e-12, 1.9048540997217408e-12},
		"SGDP": {6.0141100944451766e-12, 1.5226852164005695e-12},
	},
	"II": {
		"P1":   {2.0633609989905277e-10, 9.5047065412540455e-12},
		"P2":   {2.2632139533101029e-10, 1.4388646276254881e-11},
		"LSF3": {1.8529109650045601e-10, 4.8192415931121765e-11},
		"E4":   {2.539151563108534e-10, 2.1607034311067015e-11},
		"WLS5": {4.3153836630725481e-09, 1.6621600246635962e-10},
		"SGDP": {1.5679560731184778e-10, 1.1985686345551532e-11},
	},
}
