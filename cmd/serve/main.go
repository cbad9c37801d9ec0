// Command serve boots the timing-as-a-service daemon: the job manager
// (internal/jobs) behind the HTTP surface (internal/obs/httpserver).
//
// Usage:
//
//	serve [-addr :9090] [-workers 0] [-shards 4] [-runners 1]
//	      [-backlog 64] [-quota 8] [-artifacts DIR]
//	      [-data DIR] [-drain-timeout 30s] [-recover requeue|interrupt]
//	      [-log info] [-log-format human]
//	serve -smoke
//	serve -load [-load-submitters 8] [-load-jobs 25] [-load-out FILE]
//
// The daemon exposes:
//
//	POST   /jobs              submit a batch config (JSON)
//	GET    /jobs              list jobs
//	GET    /jobs/{id}         job status
//	GET    /jobs/{id}/result  job result
//	DELETE /jobs/{id}         cancel
//	GET    /metrics           Prometheus exposition (jobs.* + engine metrics)
//	GET    /healthz           liveness
//	GET    /debug/flight      recent incident events (bounded ring, JSON)
//
// Every request and every job lifecycle transition emits one structured
// log line on stderr carrying a correlation ID (the job ID), controlled by
// -log (debug|info|warn|error|off) and -log-format (human|json|text). The
// same event stream feeds a bounded in-memory flight recorder served at
// /debug/flight and frozen into the artifact bundle of any failing job.
//
// With -data DIR the service is durable: every acknowledged job is fsync'd
// into a CRC-framed write-ahead journal and every completed result into an
// on-disk content-addressed store before the client sees it, so kill -9
// loses nothing — the next boot replays the journal, rehydrates finished
// jobs, and re-runs (or, with -recover interrupt, marks interrupted)
// whatever was in flight. SIGTERM/SIGINT trigger a graceful drain: new
// submissions get 503 + Retry-After, running jobs get -drain-timeout to
// finish, and a clean-shutdown record lets the next boot skip recovery.
//
// -smoke runs the self-test CI uses: boot on a loopback port, drive the
// HTTP API end to end (an STA job and a sharded transistor-level pushout
// job), compare every number against the equivalent direct in-process run,
// verify an identical resubmission is served from the cache with zero new
// solves, and verify a draining manager answers 503 + Retry-After. Exit
// status 0 means the service reproduces the direct path bit for bit.
//
// -load runs the sustained load test: concurrent submitters drive distinct
// jobs through the full HTTP surface and the report gives p50/p95/p99
// submit-to-done latency plus the server-side jobs.run_seconds
// distribution (see EXPERIMENTS.md "Durability & crash recovery").
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"noisewave/internal/jobs"
	"noisewave/internal/obs"
	"noisewave/internal/obs/httpserver"
	"noisewave/internal/obs/logctx"
	"noisewave/internal/telemetry"
)

func main() {
	var (
		addr         = flag.String("addr", ":9090", "listen address")
		workers      = flag.Int("workers", 0, "sweep workers per job (0 = all cores)")
		shards       = flag.Int("shards", 4, "consistent-hash shards per sweep job")
		runners      = flag.Int("runners", 1, "jobs executed concurrently")
		backlog      = flag.Int("backlog", 64, "max queued jobs before 429")
		quota        = flag.Int("quota", 8, "max queued+running jobs per tenant before 429")
		artifacts    = flag.String("artifacts", "", "per-job artifact directory (empty = off)")
		data         = flag.String("data", "", "durable data directory: write-ahead journal + result store (empty = in-memory)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown deadline for running jobs on SIGTERM")
		recoverMode  = flag.String("recover", "requeue", "crashed in-flight jobs on boot: requeue | interrupt")
		logLevel     = flag.String("log", "info", "structured-log level: debug | info | warn | error | off")
		logFormat    = flag.String("log-format", "human", "structured-log format on stderr: human | json | text")
		smoke        = flag.Bool("smoke", false, "run the end-to-end self-test and exit")
		load         = flag.Bool("load", false, "run the sustained load test and exit")
		loadSubs     = flag.Int("load-submitters", 8, "concurrent submitters in -load mode")
		loadJobs     = flag.Int("load-jobs", 25, "jobs per submitter in -load mode")
		loadOut      = flag.String("load-out", "", "write the -load percentile report as JSON to this file")
	)
	flag.Parse()

	policy := jobs.RecoverRequeue
	switch *recoverMode {
	case "requeue":
	case "interrupt":
		policy = jobs.RecoverInterrupt
	default:
		fmt.Fprintf(os.Stderr, "serve: -recover %q (want requeue or interrupt)\n", *recoverMode)
		os.Exit(2)
	}

	if *smoke {
		if err := runSmoke(*workers, *shards); err != nil {
			fmt.Fprintln(os.Stderr, "serve: smoke FAILED:", err)
			os.Exit(1)
		}
		fmt.Println("serve: smoke OK")
		return
	}

	opts := jobs.Options{
		Backlog: *backlog, TenantQuota: *quota, Runners: *runners,
		Workers: *workers, Shards: *shards,
		ArtifactsDir: *artifacts,
		DataDir:      *data, Recover: policy,
	}

	if *load {
		if err := runLoad(loadOptions{
			Submitters: *loadSubs, Jobs: *loadJobs, Out: *loadOut, Manager: opts,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "serve: load FAILED:", err)
			os.Exit(1)
		}
		return
	}

	level, err := logctx.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(2)
	}
	stderrLog, err := logctx.New(os.Stderr, *logFormat, level)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(2)
	}
	// Everything warn-and-up also lands in the flight recorder, regardless
	// of the stderr level — /debug/flight keeps working with -log off.
	flight := obs.NewFlightRecorder(obs.DefaultFlightSize)
	log := slog.New(logctx.Tee(stderrLog.Handler(), flight.Handler(slog.LevelWarn)))

	reg := telemetry.New()
	opts.Telemetry = reg
	opts.Log = log
	opts.Flight = flight
	mgr, err := jobs.Open(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	logRecovery(*data, mgr.Recovery())
	if rep := mgr.Recovery(); rep.Recovered() {
		log.Warn("crash recovery",
			"rehydrated", rep.Rehydrated, "requeued", rep.Requeued,
			"resumed", rep.Resumed, "rescued", rep.Rescued,
			"interrupted", rep.Interrupted, "torn_bytes", rep.TornBytes)
		dumpBootFlight(*artifacts, flight, log)
	}
	srv := &httpserver.Server{Registry: reg, Jobs: mgr, Log: log, Flight: flight}
	httpSrv, ln, err := srv.Start(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	fmt.Printf("serve: listening on %s (runners=%d workers=%d shards=%d backlog=%d quota=%d durable=%v)\n",
		ln.Addr(), *runners, *workers, *shards, *backlog, *quota, *data != "")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("serve: draining (timeout %s)\n", *drainTimeout)
	// Drain first, while the HTTP surface still answers: new submissions
	// get 503 + Retry-After, pollers keep seeing status, and running jobs
	// get the deadline to finish before the clean-shutdown record lands.
	mgr.Drain(*drainTimeout)
	httpSrv.Close()
	fmt.Println("serve: drained cleanly")
}

// dumpBootFlight freezes the flight ring (which at this point holds the
// crash-recovery event) into <artifacts>/boot-recovery so the incident
// context survives even if the process dies again before anyone curls
// /debug/flight. Best-effort: a failure is logged, not fatal.
func dumpBootFlight(artifacts string, flight *obs.FlightRecorder, log *slog.Logger) {
	if artifacts == "" {
		return
	}
	run, err := obs.OpenRun(filepath.Join(artifacts, "boot-recovery"))
	if err == nil {
		err = run.WriteFlight(flight)
	}
	if err != nil {
		log.Warn("boot flight dump failed", "err", err.Error())
		return
	}
	log.Info("boot flight dump written", "dir", run.Dir())
}

// logRecovery reports what boot-time replay found, in a stable, greppable
// form (the crash suite asserts on these lines).
func logRecovery(data string, rep jobs.RecoveryReport) {
	if data == "" {
		return
	}
	switch {
	case rep.Records == 0:
		fmt.Println("serve: durable store empty (first boot)")
	case rep.Recovered():
		fmt.Printf("serve: recovered from crash: rehydrated=%d requeued=%d resumed=%d rescued=%d interrupted=%d torn_bytes=%d\n",
			rep.Rehydrated, rep.Requeued, rep.Resumed, rep.Rescued, rep.Interrupted, rep.TornBytes)
	case rep.CleanShutdown:
		fmt.Printf("serve: clean shutdown restart: rehydrated=%d requeued=%d\n",
			rep.Rehydrated, rep.Requeued)
	default:
		fmt.Printf("serve: restart: rehydrated=%d requeued=%d\n", rep.Rehydrated, rep.Requeued)
	}
}
