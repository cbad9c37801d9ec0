package experiments

import (
	"context"
	"fmt"
	"time"

	"noisewave/internal/eqwave"
	"noisewave/internal/sweep"
	"noisewave/internal/telemetry"
	"noisewave/internal/wave"
	"noisewave/internal/xtalk"
)

// RuntimeRow is one row of the §4.2 run-time comparison: the average time a
// technique takes to propagate delay information through one gate (Γeff
// fitting only — gate evaluation afterwards is common to all techniques).
type RuntimeRow struct {
	Name    string
	P       int
	PerGate time.Duration
	// AvgAbsErr links the run-time to accuracy for the P sweep (§4.2
	// remarks that small P is faster but less accurate); zero when not
	// measured.
	AvgAbsErr float64
	// Excluded counts the P sweep's cases kept out of AvgAbsErr, and
	// Failures names each quarantined one (nil when none was), as in
	// Table1Result.
	Excluded int
	Failures *sweep.FailureReport
}

const (
	// victimStart is when the victim edge starts, in every experiment.
	victimStart = 0.3e-9
	// The representative noisy case hits the victim mid-transition:
	// aggressor k switches at victimStart + representativeOffset +
	// k·aggressorStagger. Figure 2's panel (b) shows it, and the run-time
	// comparison and the P sweep time their fits on it.
	representativeOffset = 0.05e-9
	aggressorStagger     = 40e-12
)

// runtimeRepeats is the number of Γeff fits timed per technique.
const runtimeRepeats = 200

// RuntimeOptions parameterizes the run-time experiment.
type RuntimeOptions struct {
	// P is the sample count (paper: 35).
	P int
	// Ctx, if non-nil, cancels the experiment between fits and inside the
	// workload transients; the error matches telemetry.ErrCanceled.
	Ctx context.Context
	// Telemetry, if non-nil, receives the per-technique fit timers
	// ("eqwave.fit_seconds.<name>") the reported rows are derived from;
	// nil uses a private registry.
	Telemetry *telemetry.Registry
}

// RunRuntime measures per-gate propagation time for each technique on the
// representative noisy case, reproducing the §4.2 comparison. The timed
// fit loops run strictly sequentially on the calling goroutine by design:
// per-gate wall clock is the measurement, so fanning the repeats out over
// the sweep worker pool would contaminate it with scheduling noise. Each
// fit is observed on the technique's "eqwave.fit_seconds.<name>" timer and
// the reported PerGate is the timer's average over the run — the same live
// counter a Table 1 sweep feeds — rather than a separate stopwatch.
func RunRuntime(cfg xtalk.Config, opts RuntimeOptions) ([]RuntimeRow, error) {
	if opts.P <= 0 {
		opts.P = eqwave.DefaultP
	}
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.New()
	}
	ctx := orBackground(opts.Ctx)
	in, _, err := representativeCase(ctx, cfg, opts.Telemetry)
	if err != nil {
		return nil, fmt.Errorf("experiments: runtime workload: %w", err)
	}
	in.P = opts.P
	var rows []RuntimeRow
	for _, tech := range eqwave.All() {
		// Warm-up fit, also validating the technique on this workload.
		if _, err := tech.Equivalent(in); err != nil {
			return nil, fmt.Errorf("experiments: runtime workload rejected by %s: %w", tech.Name(), err)
		}
		fit := reg.Timer("eqwave.fit_seconds." + tech.Name())
		before := fit.Stats()
		for i := 0; i < runtimeRepeats; i++ {
			if ctx.Err() != nil {
				return rows, telemetry.Canceled(ctx, "experiments: runtime canceled during %s", tech.Name())
			}
			stop := fit.Start()
			_, err := tech.Equivalent(in)
			stop()
			if err != nil {
				return nil, err
			}
		}
		after := fit.Stats()
		perGate := (after.Sum - before.Sum) / float64(after.Count-before.Count)
		rows = append(rows, RuntimeRow{
			Name:    tech.Name(),
			P:       opts.P,
			PerGate: time.Duration(perGate * float64(time.Second)),
		})
	}
	return rows, nil
}

// representativeCase runs the noiseless and noisy transients of the
// configuration's representative noisy case. It returns the technique
// input, with P left for the caller, and the reference noisy output.
func representativeCase(ctx context.Context, cfg xtalk.Config, reg *telemetry.Registry) (eqwave.Input, *wave.Waveform, error) {
	cfg.Telemetry = reg
	nlIn, nlOut, err := cfg.RunNoiselessCtx(ctx, victimStart)
	if err != nil {
		return eqwave.Input{}, nil, fmt.Errorf("noiseless: %w", err)
	}
	starts := make([]float64, cfg.Aggressors)
	for k := range starts {
		starts[k] = victimStart + representativeOffset + float64(k)*aggressorStagger
	}
	nIn, nOut, err := cfg.RunCtx(ctx, victimStart, starts)
	if err != nil {
		return eqwave.Input{}, nil, fmt.Errorf("noisy: %w", err)
	}
	return eqwave.Input{
		Noisy: nIn, Noiseless: nlIn, NoiselessOut: nlOut,
		Vdd: cfg.Tech.Vdd, Edge: cfg.VictimEdge,
	}, nOut, nil
}

// RunPSweep measures SGDP accuracy and run time across sample counts,
// reproducing the §4.2 trade-off remark ("smaller P reduces run time but
// tends to lower accuracy"). so controls each P's accuracy sweep exactly as
// Table1Options' block does, and its Ctx and Telemetry also reach the
// workload transients. The per-gate fit timing loop stays on the calling
// goroutine, on a private timer per P, so the reported wall-clock per fit
// is neither distorted by concurrent load nor mixed with other fits. A
// canceled run returns the rows of the P values that finished, with an
// error matching telemetry.ErrCanceled.
func RunPSweep(cfg xtalk.Config, ps []int, cases int, so SweepOptions) ([]RuntimeRow, error) {
	if len(ps) == 0 {
		ps = []int{9, 17, 35, 71, 141}
	}
	if cases <= 0 {
		cases = 20
	}
	ctx := so.ctx()
	in, _, err := representativeCase(ctx, cfg, so.Telemetry)
	if err != nil {
		return nil, fmt.Errorf("experiments: P sweep workload: %w", err)
	}
	var rows []RuntimeRow
	for _, p := range ps {
		res, err := RunTable1(cfg, Table1Options{
			Cases: cases, Range: 1e-9, P: p,
			Techniques:   []eqwave.Technique{eqwave.NewSGDP()},
			SweepOptions: so,
		})
		if err != nil {
			return rows, fmt.Errorf("experiments: P sweep (P=%d): %w", p, err)
		}
		st, _ := res.StatsFor("SGDP")
		in.P = p
		sgdp := eqwave.NewSGDP()
		fit := telemetry.New().Timer("eqwave.fit_seconds.SGDP")
		const reps = 100
		for i := 0; i < reps; i++ {
			if ctx.Err() != nil {
				return rows, telemetry.Canceled(ctx, "experiments: P sweep canceled during SGDP fits (P=%d)", p)
			}
			stop := fit.Start()
			_, err := sgdp.Equivalent(in)
			stop()
			if err != nil {
				return rows, err
			}
		}
		stats := fit.Stats()
		rows = append(rows, RuntimeRow{
			Name:      "SGDP",
			P:         p,
			PerGate:   time.Duration(stats.Sum / float64(stats.Count) * float64(time.Second)),
			AvgAbsErr: st.AvgAbs,
			Excluded:  res.Excluded,
			Failures:  res.Failures,
		})
	}
	return rows, nil
}
