package jobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"strings"

	"noisewave/internal/device"
	"noisewave/internal/eqwave"
	"noisewave/internal/experiments"
	"noisewave/internal/liberty"
	"noisewave/internal/netlist"
	"noisewave/internal/obs"
	"noisewave/internal/obs/logctx"
	"noisewave/internal/sta"
	"noisewave/internal/sweep"
	"noisewave/internal/telemetry"
	"noisewave/internal/trace"
	"noisewave/internal/xtalk"
)

// canceledErr reports whether a job's terminal error is a cancellation
// rather than a failure.
func canceledErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, telemetry.ErrCanceled)
}

// RunDirect executes a configuration synchronously, outside any queue or
// cache — the reference path smoke tests and goldens compare the service
// against. Only the execution fields of opts (Workers, Telemetry) are
// used.
func RunDirect(ctx context.Context, cfg Config, opts Options) (*Result, error) {
	norm, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	opts.ArtifactsDir = "" // no job identity to file artifacts under
	m := &Manager{opts: opts.withDefaults(), reg: opts.Telemetry}
	return m.execute(ctx, &Job{cfg: norm, doneCh: make(chan struct{})})
}

// execute runs one job's configuration and, when ArtifactsDir is set,
// leaves a per-job audit trail (config, metrics delta, trace, structured
// log, failures) under <ArtifactsDir>/<jobID>/.
//
// This is where the correlation ID enters the pipeline: the job ID rides
// the context (logctx.WithID) so sweep quarantine and spice recovery events
// carry it, the job-scoped logger is teed into an in-memory buffer that
// becomes the artifact log.jsonl, and the per-job tracer stamps the ID onto
// every root span.
func (m *Manager) execute(ctx context.Context, j *Job) (*Result, error) {
	cfg := j.cfg

	ctx = logctx.WithID(ctx, j.ID)
	runLog := m.logger()
	var logBuf *logctx.SyncBuffer

	var tracer *trace.Tracer
	var before telemetry.Snapshot
	if m.opts.ArtifactsDir != "" {
		tracer = trace.New()
		tracer.SetCommonAttrs(trace.String("job", j.ID))
		before = m.reg.Snapshot()
		logBuf = &logctx.SyncBuffer{}
		capture := slog.NewJSONHandler(logBuf, &slog.HandlerOptions{Level: slog.LevelDebug})
		runLog = slog.New(logctx.Tee(runLog.Handler(), capture))
	}
	ctx = logctx.With(ctx, runLog)
	// Bracket the run in the job-scoped log so the captured log.jsonl in
	// the artifact bundle is never empty, even for a clean quiet run.
	logctx.From(ctx).Info("run started", "experiment", cfg.Experiment)

	var res *Result
	var report *sweep.FailureReport
	var err error
	switch cfg.Experiment {
	case ExpTable1:
		res, report, err = m.runTable1(ctx, j, tracer)
	case ExpPushout:
		res, report, err = m.runPushout(ctx, j, tracer)
	case ExpSTA:
		res, err = runSTA(ctx, cfg, m.reg, tracer)
	default:
		err = fmt.Errorf("%w: unknown experiment %q", ErrInvalidConfig, cfg.Experiment)
	}

	if err != nil {
		logctx.From(ctx).Warn("run finished", "err", err.Error())
	} else {
		logctx.From(ctx).Info("run finished")
	}
	if m.opts.ArtifactsDir != "" {
		if aerr := m.writeArtifacts(j, tracer, before, report, logBuf, err); aerr != nil && err == nil {
			err = fmt.Errorf("jobs: write artifacts: %w", aerr)
		}
	}
	return res, err
}

// writeArtifacts records the job's audit trail. The metrics file holds the
// job-scoped delta of the shared registry — with Runners == 1 (the
// default) it is exact; with concurrent runners it attributes overlapping
// activity to every overlapping job.
func (m *Manager) writeArtifacts(j *Job, tracer *trace.Tracer,
	before telemetry.Snapshot, report *sweep.FailureReport,
	logBuf *logctx.SyncBuffer, runErr error) error {

	run, err := obs.OpenRun(filepath.Join(m.opts.ArtifactsDir, obs.SafeName(j.ID)))
	if err != nil {
		return err
	}
	if err := run.WriteConfig(struct {
		ID     string `json:"id"`
		Tenant string `json:"tenant,omitempty"`
		Hash   string `json:"hash"`
		Error  string `json:"error,omitempty"`
		Config Config `json:"config"`
	}{
		ID: j.ID, Tenant: j.Tenant, Hash: j.Hash,
		Error: errString(runErr), Config: j.cfg,
	}); err != nil {
		return err
	}
	if err := run.WriteMetrics(m.reg.Snapshot().Delta(before)); err != nil {
		return err
	}
	if err := run.WriteTrace(tracer); err != nil {
		return err
	}
	if logBuf != nil {
		if err := run.WriteLog(logBuf.String()); err != nil {
			return err
		}
	}
	if runErr != nil {
		// A failing job freezes the flight ring into its audit trail: the
		// events leading up to the failure, not just its own.
		if err := run.WriteFlight(m.opts.Flight); err != nil {
			return err
		}
	}
	return run.WriteFailures(map[string]*sweep.FailureReport{j.cfg.Experiment: report})
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sweepOptions assembles the sweep-control block every sweep job shares:
// the manager's worker-pool size, the job's context, the shared registry
// and the per-job tracer, plus a progress hook updating the job.
func (m *Manager) sweepOptions(ctx context.Context, j *Job, tracer *trace.Tracer, keepGoing bool) experiments.SweepOptions {
	return experiments.SweepOptions{
		Workers:   m.opts.Workers,
		Ctx:       ctx,
		Telemetry: m.reg,
		Tracer:    tracer,
		KeepGoing: keepGoing,
		Progress: func(done, total int) {
			j.mu.Lock()
			j.done, j.total = done, total
			j.mu.Unlock()
		},
	}
}

// crosstalkConfig resolves the "I" / "II" name to the paper configuration.
func crosstalkConfig(name string) xtalk.Config {
	t := device.Default130()
	if name == "II" {
		return xtalk.ConfigurationII(t)
	}
	return xtalk.ConfigurationI(t)
}

func (m *Manager) runTable1(ctx context.Context, j *Job, tracer *trace.Tracer) (*Result, *sweep.FailureReport, error) {
	cfg := j.cfg
	var techs []eqwave.Technique
	for _, name := range cfg.Techniques {
		t, err := eqwave.ByName(name)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
		techs = append(techs, t)
	}
	opts := experiments.Table1Options{
		Cases: cfg.Cases, Range: cfg.RangeS, P: cfg.P, Techniques: techs,
		SweepOptions: m.sweepOptions(ctx, j, tracer, cfg.KeepGoing),
	}
	r, err := experiments.RunTable1(crosstalkConfig(cfg.Config), opts)
	if err != nil {
		return nil, nil, err
	}
	p := &Table1Payload{Config: cfg.Config, Cases: cfg.Cases, P: cfg.P}
	for _, s := range r.Stats {
		p.Stats = append(p.Stats, TechniqueStat{
			Name: s.Name, MaxAbs: s.MaxAbs, AvgAbs: s.AvgAbs,
			MeanSigned: s.MeanSigned, Failures: s.Failures, N: s.N,
		})
	}
	res := &Result{Experiment: ExpTable1, Table1: p, Excluded: r.Excluded}
	res.Failures = failureRecords(r.Failures)
	return res, r.Failures, nil
}

func (m *Manager) runPushout(ctx context.Context, j *Job, tracer *trace.Tracer) (*Result, *sweep.FailureReport, error) {
	cfg := j.cfg
	opts := experiments.PushoutOptions{
		Cases: cfg.Cases, Range: cfg.RangeS, MonteCarlo: cfg.MonteCarlo,
		SweepOptions: m.sweepOptions(ctx, j, tracer, cfg.KeepGoing),
	}
	opts.Seed = cfg.Seed
	r, err := experiments.RunPushout(crosstalkConfig(cfg.Config), opts)
	if err != nil {
		return nil, nil, err
	}
	p := &PushoutPayload{
		Config: cfg.Config, Cases: r.Cases, QuietArrival: r.QuietArrival,
		Mean: r.Mean, Min: r.Min, Max: r.Max, P50: r.P50, P95: r.P95,
		Pushouts: r.Pushouts,
	}
	res := &Result{Experiment: ExpPushout, Pushout: p, Excluded: r.Excluded}
	res.Failures = failureRecords(r.Failures)
	return res, r.Failures, nil
}

// failureRecords flattens a sweep failure report for JSON.
func failureRecords(r *sweep.FailureReport) []FailureRecord {
	if r == nil {
		return nil
	}
	out := make([]FailureRecord, 0, len(r.Failures))
	for _, f := range r.Failures {
		out = append(out, FailureRecord{Index: f.Index, Error: f.Err.Error()})
	}
	return out
}

// runSTA parses the job's netlist and library, runs the timer and flattens
// the per-net timing, critical path and slack report. STA jobs are pure
// table-lookup timing — fast enough that they run on the runner goroutine
// itself, outside the sweep pool; ctx still cancels a pathological design at the next
// level boundary.
func runSTA(ctx context.Context, cfg Config, reg *telemetry.Registry, tracer *trace.Tracer) (*Result, error) {
	design, err := netlist.Parse(strings.NewReader(cfg.Netlist))
	if err != nil {
		return nil, fmt.Errorf("%w: netlist: %v", ErrInvalidConfig, err)
	}
	lib, err := liberty.Parse(strings.NewReader(cfg.Liberty))
	if err != nil {
		return nil, fmt.Errorf("%w: liberty: %v", ErrInvalidConfig, err)
	}
	timer := sta.New(lib, design)
	if cfg.Wire == "elmore" {
		timer.Wire = sta.ElmoreWire
	}

	res, err := timer.RunCtx(ctx, sta.RunOptions{Workers: 1, Telemetry: reg, Tracer: tracer})
	if err != nil {
		return nil, err
	}
	p := &STAPayload{Design: design.Name, Gates: len(design.Gates)}
	for _, o := range design.Outputs {
		n := res.Nets[o]
		if n == nil {
			continue
		}
		p.Outputs = append(p.Outputs, NetTimingJS{
			Net:         o,
			RiseArrival: n.Rise.Arrival, RiseTrans: n.Rise.Trans,
			FallArrival: n.Fall.Arrival, FallTrans: n.Fall.Trans,
		})
	}
	net, edge, at, err := res.WorstOutput(design.Outputs)
	if err != nil {
		return nil, err
	}
	p.WorstNet, p.WorstEdge, p.WorstAT = net, edge.String(), at.Arrival
	path, err := res.CriticalPath(net, edge)
	if err != nil {
		return nil, err
	}
	for _, s := range path {
		p.Path = append(p.Path, PathStepJS{
			Net: s.Net, Edge: s.Edge.String(),
			Arrival: s.Arrival, Trans: s.Trans, ViaGate: s.ViaGate,
		})
	}

	if len(cfg.Require) > 0 {
		constraints := make(map[string]float64, len(cfg.Require))
		for netName, val := range cfg.Require {
			t, err := netlist.ParseQuantity(val)
			if err != nil {
				return nil, fmt.Errorf("%w: require %s: %v", ErrInvalidConfig, netName, err)
			}
			constraints[netName] = t
		}
		req, err := timer.ComputeRequired(res, constraints)
		if err != nil {
			return nil, err
		}
		for _, row := range req.Report() {
			p.Slacks = append(p.Slacks, slackJS(row))
		}
		if worst, ok := req.WorstSlack(); ok {
			w := slackJS(worst)
			p.WorstSlack = &w
		}
	}
	return &Result{Experiment: ExpSTA, STA: p}, nil
}

// slackJS flattens one slack-report row for JSON.
func slackJS(r sta.SlackRow) SlackJS {
	return SlackJS{Net: r.Net, Edge: r.Edge.String(), Arrival: r.Arrival, Required: r.Required, Slack: r.Slack}
}
