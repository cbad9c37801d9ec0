// Command repro regenerates the paper's evaluation artifacts: Table 1
// (accuracy of the six equivalent-waveform techniques on Configurations I
// and II), Figure 2 (sensitivity and Γeff waveform series, as CSV) and the
// §4.2 run-time comparison, using the built-in technology and the internal
// transient simulator as the golden reference.
//
// Usage:
//
//	repro -experiment table1 [-cases 200] [-config both] [-p 35] [-workers N]
//	repro -experiment figure2 [-out figure2.csv]
//	repro -experiment runtime [-p 35]
//	repro -experiment psweep
//	repro -experiment all
//
// -workers sizes the sweep worker pool for the alignment sweeps (table1,
// pushout, psweep): 0 (the default) uses every core, and 1 runs the cases
// one at a time in case order. Each worker owns a private transistor-level
// simulator — the spice engine is single-threaded — and the statistics are
// bit-identical for any worker count. figure2 and runtime run no sweep, so
// they reject -workers, -trace, -chaos, -keep-going and -case-timeout
// (exit 2).
//
// Observability and run control:
//
//	-metrics text|json   dump the telemetry snapshot (spice engine counters,
//	                     replay-cache outcomes, per-technique fit timers,
//	                     sweep throughput, per-experiment wall timers) to
//	                     stderr at exit
//	-trace               record hierarchical spans: one trace per sweep case
//	                     (golden transient, per-technique fits and replays,
//	                     spice internals). Tracing never changes the numbers.
//	-artifacts DIR       write the run-artifact directory at exit — Chrome
//	                     trace (Perfetto-loadable), JSONL case journal,
//	                     metrics snapshot, failure report, resolved config.
//	                     Implies -trace.
//	-serve addr          status server: /metrics (Prometheus), /healthz,
//	                     /progress (live sweep state), /trace/{case}
//	-pprof addr          serve net/http/pprof on addr (e.g. localhost:6060);
//	                     the listener is bound before any sweep work, so a
//	                     bad address fails fast instead of being reported
//	                     mid-run
//	-timeout d           cancel the run after d (e.g. 30s); the sweep stops
//	                     at the next case boundary, in-flight transients stop
//	                     at their next time step, and the partial statistics
//	                     accumulated so far are reported before a clean exit
//	-log level           structured event log on stderr (debug|info|warn|
//	                     error|off, default off): case quarantines, solver
//	                     recovery rungs and ladder exhaustion as one line per
//	                     event, correlated by sweep case
//	-log-format f        human (aligned, for terminals), json (one JSON
//	                     object per line) or text (slog key=value)
//
// Ctrl-C (SIGINT/SIGTERM) cancels the same way as -timeout: partial
// results plus, with -metrics, the snapshot of what ran.
//
// Failure handling and chaos testing (see EXPERIMENTS.md):
//
//	-keep-going          quarantine failing sweep cases (solver error, worker
//	                     panic, per-case timeout) instead of aborting; the
//	                     statistics cover the surviving cases and a failure
//	                     report names every quarantined case
//	-case-timeout d      bound each sweep case with its own deadline; an
//	                     overrunning case fails (and, with -keep-going, is
//	                     quarantined) without cancelling the run
//	-chaos seed          enable the deterministic fault injector with the
//	                     given seed (0 = off): a capped dose of forced solver
//	                     divergence, NaN poisoning, stalls and worker panics,
//	                     to exercise the recovery and quarantine paths; the
//	                     per-class fire counts are printed at exit
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"noisewave/internal/device"
	"noisewave/internal/experiments"
	"noisewave/internal/faultinject"
	"noisewave/internal/obs"
	"noisewave/internal/obs/httpserver"
	"noisewave/internal/obs/logctx"
	"noisewave/internal/report"
	"noisewave/internal/sweep"
	"noisewave/internal/telemetry"
	"noisewave/internal/trace"
	"noisewave/internal/xtalk"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "table1 | figure2 | runtime | psweep | pushout | all")
		cases      = flag.Int("cases", 200, "number of aggressor alignment cases for table1")
		config     = flag.String("config", "both", "I | II | both")
		p          = flag.Int("p", 35, "technique sample count P")
		out        = flag.String("out", "", "CSV output path for figure2 (default stdout)")
		quiet      = flag.Bool("q", false, "suppress progress output")
		workers    = flag.Int("workers", 0, "sweep worker pool size (0 = all cores, 1 = one case at a time)")
		metrics    = flag.String("metrics", "", "dump telemetry snapshot at exit: text | json")
		traceOn    = flag.Bool("trace", false, "record hierarchical spans (one trace per sweep case)")
		artifacts  = flag.String("artifacts", "", "write run artifacts (trace, journal, metrics, failures, config) to this directory at exit; implies -trace")
		serveAddr  = flag.String("serve", "", "serve the status endpoints (/metrics /healthz /progress /trace/{case}) on this address")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		timeout    = flag.Duration("timeout", 0, "cancel the run after this duration (0 = no limit)")
		keepGoing  = flag.Bool("keep-going", false, "quarantine failing sweep cases instead of aborting the run")
		caseTO     = flag.Duration("case-timeout", 0, "per-case deadline for sweep cases (0 = no limit)")
		chaos      = flag.Int64("chaos", 0, "fault-injection seed: exercise recovery/quarantine paths deterministically (0 = off)")
		logLevel   = flag.String("log", "off", "structured-log level on stderr: debug | info | warn | error | off")
		logFormat  = flag.String("log-format", "human", "structured-log format: human | json | text")
	)
	flag.Parse()

	// figure2 and runtime run no sweep, so a sweep flag set there is an
	// error rather than a silent no-op; -experiment all shares the flags
	// with its sweeps.
	if !runsSweep(*experiment) {
		flag.Visit(func(f *flag.Flag) {
			if slices.Contains([]string{"chaos", "keep-going", "case-timeout", "trace", "workers"}, f.Name) {
				fmt.Fprintf(os.Stderr, "repro: -%s applies only to sweeps; -experiment %s runs none\n", f.Name, *experiment)
				os.Exit(2)
			}
		})
	}
	if *metrics != "" && *metrics != "text" && *metrics != "json" {
		fmt.Fprintf(os.Stderr, "repro: -metrics %q: want text or json\n", *metrics)
		os.Exit(2)
	}
	level, err := logctx.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(2)
	}
	log, err := logctx.New(os.Stderr, *logFormat, level)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(2)
	}
	if *pprofAddr != "" {
		// Bind synchronously so a bad address (typo, taken port) fails
		// before any sweep work starts, with a clean exit code — not as a
		// background complaint racing a half-finished run.
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro: pprof server:", err)
			os.Exit(2)
		}
		// DefaultServeMux carries the net/http/pprof handlers.
		go http.Serve(ln, nil)
	}

	// Ctrl-C and -timeout share one cancellation path into the pipeline.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// The pipeline picks the logger up from the context (logctx.From), so
	// quarantine and solver-recovery events surface without any plumbing.
	ctx = logctx.With(ctx, log)

	var inject *faultinject.Injector
	if *chaos != 0 {
		inject = faultinject.Default(*chaos)
	}

	reg := telemetry.New()
	// Only sweeps record spans, so a run without one writes no trace.
	var tracer *trace.Tracer
	if runsSweep(*experiment) && (*traceOn || *artifacts != "") {
		tracer = trace.New()
	}
	progress := &obs.Progress{}
	if *serveAddr != "" {
		srv, ln, err := (&httpserver.Server{
			Registry: reg, Tracer: tracer, Progress: progress,
		}).Start(*serveAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Fprintln(os.Stderr, "repro: status server on http://"+ln.Addr().String())
	}

	e := env{
		stdout: os.Stdout, ctx: ctx, reg: reg, tracer: tracer, progress: progress,
		config: *config, cases: *cases, p: *p,
		workers: *workers, out: *out, quiet: *quiet,
		keepGoing: *keepGoing, caseTimeout: *caseTO, inject: inject,
	}
	if *artifacts != "" {
		e.failures = make(map[string]*sweep.FailureReport)
	}
	err = run(e, *experiment)

	if inject != nil {
		fmt.Fprintln(os.Stderr, "repro:", inject.Summary())
	}
	if *metrics != "" {
		dumpMetrics(reg, *metrics)
	}
	if *artifacts != "" {
		// Written on every exit path — a canceled or partially failed run
		// still leaves its provenance behind.
		if aerr := writeArtifacts(*artifacts, e, *experiment); aerr != nil {
			fmt.Fprintln(os.Stderr, "repro: artifacts:", aerr)
		} else {
			fmt.Fprintln(os.Stderr, "repro: artifacts written to", *artifacts)
		}
	}
	if err != nil {
		if errors.Is(err, telemetry.ErrCanceled) {
			// A canceled run is a clean exit: partial statistics were
			// already reported by the experiment printers above.
			fmt.Fprintln(os.Stderr, "repro: run canceled:", err)
			return
		}
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

// env carries the run-wide settings every experiment printer needs: the
// cancellation context, the shared telemetry registry, the CLI knobs and
// the writer the tables go to.
type env struct {
	stdout      io.Writer
	ctx         context.Context
	reg         *telemetry.Registry
	tracer      *trace.Tracer
	progress    *obs.Progress
	config      string
	cases       int
	p           int
	workers     int
	out         string
	quiet       bool
	keepGoing   bool
	caseTimeout time.Duration
	inject      *faultinject.Injector
	// failures collects each sweep's failure report for the run-artifact
	// directory; nil when -artifacts is off.
	failures map[string]*sweep.FailureReport
}

// partialBanner heads the table of a sweep that was canceled mid-run.
const partialBanner = "(partial: run canceled mid-sweep)"

// sweepOpts assembles the shared sweep-control block from the environment.
// The live progress tracker feeds the status server even when no display
// callback is installed.
func (e env) sweepOpts() experiments.SweepOptions {
	return experiments.SweepOptions{
		Workers: e.workers, Ctx: e.ctx, Telemetry: e.reg, Tracer: e.tracer,
		Progress:  e.progress.Hook(nil),
		KeepGoing: e.keepGoing, CaseTimeout: e.caseTimeout, Inject: e.inject,
	}
}

// noteFailures records a sweep's failure report for the artifact directory.
func (e env) noteFailures(label string, rep *sweep.FailureReport) {
	if e.failures != nil {
		e.failures[label] = rep
	}
}

// runsSweep reports whether an experiment runs a case sweep. figure2 and
// runtime do not: the sweep flags and the sweep artifacts (trace, journal,
// failure reports) do not apply to them.
func runsSweep(experiment string) bool {
	return experiment != "figure2" && experiment != "runtime"
}

// writeArtifacts renders the run-artifact directory: the settings the
// experiment read and the metrics snapshot, plus, for sweeps, the Chrome
// trace, the JSONL journal and the failure reports.
func writeArtifacts(dir string, e env, experiment string) error {
	a, err := obs.OpenRun(dir)
	if err != nil {
		return err
	}
	sweeps := runsSweep(experiment)
	cfg := map[string]any{
		"experiment": experiment,
		"config":     e.config,
		"p":          e.p,
	}
	if sweeps {
		cfg["cases"] = e.cases
		cfg["workers"] = e.workers
		cfg["keep_going"] = e.keepGoing
		cfg["case_timeout"] = e.caseTimeout.String()
		cfg["chaos"] = e.inject != nil
	}
	if err := a.WriteConfig(cfg); err != nil {
		return err
	}
	if err := a.WriteMetrics(e.reg.Snapshot()); err != nil {
		return err
	}
	if !sweeps {
		return nil
	}
	if err := a.WriteTrace(e.tracer); err != nil {
		return err
	}
	return a.WriteFailures(e.failures)
}

func run(e env, experiment string) error {
	cfgs, err := selectConfigs(e.config)
	if err != nil {
		return err
	}
	switch experiment {
	case "table1":
		return runTable1(e, cfgs)
	case "figure2":
		return runFigure2(e, cfgs[0])
	case "runtime":
		return runRuntime(e, cfgs[0])
	case "psweep":
		return runPSweep(e, cfgs[0], e.cases)
	case "pushout":
		return runPushout(e, cfgs, e.cases)
	case "all":
		if err := runTable1(e, cfgs); err != nil {
			return err
		}
		if err := runFigure2(e, cfgs[0]); err != nil {
			return err
		}
		if err := runRuntime(e, cfgs[0]); err != nil {
			return err
		}
		if err := runPSweep(e, cfgs[0], e.cases/10); err != nil {
			return err
		}
		return runPushout(e, cfgs, e.cases/2)
	default:
		return fmt.Errorf("unknown experiment %q", experiment)
	}
}

// poolSize reports the effective worker count for throughput lines.
func poolSize(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// dumpMetrics writes the registry snapshot to stderr in the chosen format.
func dumpMetrics(reg *telemetry.Registry, format string) {
	snap := reg.Snapshot()
	fmt.Fprintln(os.Stderr, "--- telemetry snapshot ---")
	var err error
	if format == "json" {
		err = snap.WriteJSON(os.Stderr)
	} else {
		err = snap.WriteText(os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro: metrics dump:", err)
	}
}

// throughput reports a sweep's cases/s from the telemetry delta rather than
// an ad-hoc stopwatch: completed cases come from the sweep engine's own
// counter (recorded identically at every worker count, so -workers 1 and
// -workers N lines are comparable) and the denominator is the experiment's
// wall timer.
func throughput(d telemetry.Snapshot, wallTimer string) (cases int64, elapsed time.Duration, rate float64) {
	cases = d.Counters["sweep.cases_completed"]
	elapsed = time.Duration(d.Timers[wallTimer].Sum * float64(time.Second))
	if s := d.Timers[wallTimer].Sum; s > 0 {
		rate = float64(cases) / s
	}
	return cases, elapsed, rate
}

// runPushout prints the delay-noise distribution per configuration.
func runPushout(e env, cfgs []xtalk.Config, cases int) error {
	for _, cfg := range cfgs {
		before := e.reg.Snapshot()
		e.progress.SetPhase("pushout config "+cfg.Name, cases)
		st, err := experiments.RunPushout(cfg, experiments.PushoutOptions{
			Cases: cases, Range: 1e-9, SweepOptions: e.sweepOpts(),
		})
		if st == nil || (err != nil && !errors.Is(err, telemetry.ErrCanceled)) {
			return err // a cancel before the first case leaves nothing to print
		}
		e.noteFailures("pushout config "+cfg.Name, st.Failures)
		done, elapsed, rate := throughput(e.reg.Snapshot().Delta(before), "experiments.pushout.seconds")
		fmt.Fprintf(os.Stderr, "pushout config %s: %d cases in %v (%.2f cases/s, %d workers)\n",
			cfg.Name, done, elapsed.Round(time.Millisecond), rate, poolSize(e.workers))
		fmt.Fprintf(e.stdout, "\nDelay-noise distribution, configuration %s (%d cases):\n", cfg.Name, st.Cases)
		fmt.Fprintf(e.stdout, "  quiet arrival %s ns; pushout mean=%s p50=%s p95=%s max=%s ps\n",
			report.Ns(st.QuietArrival), report.Ps(st.Mean), report.Ps(st.P50),
			report.Ps(st.P95), report.Ps(st.Max))
		for _, b := range st.Hist {
			bar := ""
			for i := 0; i < b.Count; i++ {
				bar += "#"
			}
			fmt.Fprintf(e.stdout, "  [%7s, %7s) ps %s\n", report.Ps(b.Lo), report.Ps(b.Hi), bar)
		}
		printFailures(e.stdout, cfg.Name, st.Excluded, st.Failures)
		if err != nil {
			return err
		}
	}
	return nil
}

func selectConfigs(sel string) ([]xtalk.Config, error) {
	t := device.Default130()
	switch strings.ToUpper(sel) {
	case "I":
		return []xtalk.Config{xtalk.ConfigurationI(t)}, nil
	case "II":
		return []xtalk.Config{xtalk.ConfigurationII(t)}, nil
	case "BOTH":
		return []xtalk.Config{xtalk.ConfigurationI(t), xtalk.ConfigurationII(t)}, nil
	}
	return nil, fmt.Errorf("unknown config %q (want I, II or both)", sel)
}

func runTable1(e env, cfgs []xtalk.Config) error {
	fmt.Fprintf(e.stdout, "Table 1: gate delay error vs transient reference (%d cases, P=%d)\n\n", e.cases, e.p)
	tbl := report.NewTable("Method", "Cfg I Max (ps)", "Cfg I Avg (ps)", "Cfg II Max (ps)", "Cfg II Avg (ps)")
	columns := map[string][4]string{}
	var order []string
	var canceled error
	for _, cfg := range cfgs {
		opts := experiments.Table1Options{
			Cases: e.cases, Range: 1e-9, P: e.p, SweepOptions: e.sweepOpts(),
		}
		if !e.quiet {
			opts.Progress = e.progress.Hook(func(done, total int) {
				if done%20 == 0 || done == total {
					fmt.Fprintf(os.Stderr, "  config %s: %d/%d cases\r", cfg.Name, done, total)
				}
			})
		}
		e.progress.SetPhase("table1 config "+cfg.Name, e.cases)
		before := e.reg.Snapshot()
		res, err := experiments.RunTable1(cfg, opts)
		if res == nil || (err != nil && !errors.Is(err, telemetry.ErrCanceled)) {
			return err // a cancel before the first case leaves nothing to print
		}
		e.noteFailures("table1 config "+cfg.Name, res.Failures)
		canceled = err
		if !e.quiet {
			fmt.Fprintln(os.Stderr)
		}
		done, elapsed, rate := throughput(e.reg.Snapshot().Delta(before), "experiments.table1.seconds")
		fmt.Fprintf(os.Stderr, "  config %s: %d cases in %v (%.2f cases/s, %d workers)\n",
			cfg.Name, done, elapsed.Round(time.Millisecond), rate, poolSize(e.workers))
		// Worst-case diagnostic: the per-aggressor offsets reproduce the
		// exact alignment (Configuration II's aggressors sweep with
		// different strides, so one scalar would misname the case).
		for _, name := range []string{"SGDP", "WLS5"} {
			if rec, errv, ok := res.WorstCase(name); ok {
				fmt.Fprintf(os.Stderr, "  config %s worst %s case: err=%s ps at aggressor offsets (ps)%s\n",
					cfg.Name, name, report.Ps(errv), fmtOffsetsPs(rec.Offsets))
			}
		}
		for _, s := range res.Stats {
			col, ok := columns[s.Name]
			if !ok {
				order = append(order, s.Name)
				col = [4]string{"-", "-", "-", "-"}
			}
			base := 0
			if cfg.Name == "II" {
				base = 2
			}
			col[base] = report.Ps(s.MaxAbs)
			col[base+1] = report.Ps(s.AvgAbs)
			columns[s.Name] = col
		}
		printFailures(e.stdout, cfg.Name, res.Excluded, res.Failures)
		if canceled != nil {
			break
		}
	}
	for _, name := range order {
		c := columns[name]
		tbl.AddRow(name, c[0], c[1], c[2], c[3])
	}
	if canceled != nil {
		fmt.Fprintln(e.stdout, partialBanner)
	}
	if err := tbl.Render(e.stdout); err != nil {
		return err
	}
	return canceled
}

func runFigure2(e env, cfg xtalk.Config) error {
	series, err := experiments.RunFigure2(cfg, experiments.Figure2Options{
		P: e.p, Ctx: e.ctx, Telemetry: e.reg,
	})
	if err != nil {
		return err
	}
	w := e.stdout
	if e.out != "" {
		f, err := os.Create(e.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	names := []string{"v_in_noiseless", "v_out_noiseless", "rho_noiseless_x0.2",
		"v_in_noisy", "v_out_noisy", "rho_eff_x0.2", "gamma_eff", "v_out_eff"}
	waves := map[string]interface{ At(float64) float64 }{
		"v_in_noiseless":     series.NoiselessIn,
		"v_out_noiseless":    series.NoiselessOut,
		"rho_noiseless_x0.2": series.RhoNoiseless,
		"v_in_noisy":         series.NoisyIn,
		"v_out_noisy":        series.NoisyOut,
		"rho_eff_x0.2":       series.RhoEff,
		"gamma_eff":          series.GammaWave,
		"v_out_eff":          series.EstOut,
	}
	fmt.Fprintf(os.Stderr, "Figure 2: Γeff = %v\n", series.GammaEff)
	return report.WriteWaveCSV(w, names, func(name string, t float64) float64 {
		return waves[name].At(t)
	}, series.NoisyIn.T)
}

func runRuntime(e env, cfg xtalk.Config) error {
	rows, err := experiments.RunRuntime(cfg, experiments.RuntimeOptions{
		P: e.p, Ctx: e.ctx, Telemetry: e.reg,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(e.stdout, "\nRun-time comparison (§4.2): per-gate Γeff fit, P=%d\n\n", e.p)
	tbl := report.NewTable("Method", "Per-gate time")
	for _, r := range rows {
		tbl.AddRow(r.Name, r.PerGate.String())
	}
	return tbl.Render(e.stdout)
}

// printFailures renders a sweep's failure report when anything was
// quarantined or excluded; silent on clean runs, so healthy output stays
// byte-identical with and without the resilience flags.
func printFailures(w io.Writer, config string, excluded int, rep *sweep.FailureReport) {
	if excluded == 0 && rep.Quarantined() == 0 {
		return
	}
	fmt.Fprintf(w, "\nFailure report, configuration %s: %d case(s) excluded from statistics\n", config, excluded)
	if rep != nil {
		fmt.Fprintf(w, "  %s\n", rep)
	}
}

// fmtOffsetsPs renders an offset slice in picoseconds for diagnostics.
func fmtOffsetsPs(offsets []float64) string {
	var b strings.Builder
	for _, o := range offsets {
		fmt.Fprintf(&b, " %s", report.Ps(o))
	}
	return b.String()
}

// runPSweep prints the P sweep's rows. A canceled sweep still prints the
// rows of the P values that finished, under table1's partial banner.
func runPSweep(e env, cfg xtalk.Config, cases int) error {
	e.progress.SetPhase("psweep config "+cfg.Name, cases)
	rows, err := experiments.RunPSweep(cfg, nil, cases, e.sweepOpts())
	if err != nil && !errors.Is(err, telemetry.ErrCanceled) {
		return err
	}
	fmt.Fprintf(e.stdout, "\nSGDP accuracy/run-time vs P (§4.2 trade-off)\n\n")
	if err != nil {
		fmt.Fprintln(e.stdout, partialBanner)
	}
	tbl := report.NewTable("P", "Per-gate time", "Avg |err| (ps)")
	for _, r := range rows {
		tbl.AddRow(fmt.Sprint(r.P), r.PerGate.String(), report.Ps(r.AvgAbsErr))
	}
	rerr := tbl.Render(e.stdout)
	for _, r := range rows {
		label := fmt.Sprintf("%s, P=%d", cfg.Name, r.P)
		e.noteFailures("psweep config "+label, r.Failures)
		printFailures(e.stdout, label, r.Excluded, r.Failures)
	}
	if rerr != nil {
		return rerr
	}
	return err
}
