package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"noisewave/internal/core"
	"noisewave/internal/sweep"
	"noisewave/internal/trace"
	"noisewave/internal/xtalk"
)

// PushoutStats characterizes the delay-noise distribution of a crosstalk
// configuration: how far the victim receiver's output arrival moves versus
// the quiet baseline across aggressor alignments. This is the underlying
// physical quantity whose *estimation error* Table 1 scores; the
// distribution itself shows how much timing noise the configuration
// injects.
type PushoutStats struct {
	Cases int
	// QuietArrival is the aggressor-quiet output arrival (s).
	QuietArrival float64
	// Pushouts are per-case arrival shifts (s), in case order.
	Pushouts []float64
	// Summary statistics (s).
	Mean, Min, Max, P50, P95 float64
	// Hist is a fixed 12-bin histogram over [Min, Max].
	Hist []HistBin
	// Excluded counts cases quarantined by a KeepGoing sweep; the
	// distribution covers the remaining (healthy) cases.
	Excluded int
	// Failures is the sweep's failure report when any case was
	// quarantined or a worker was lost (nil otherwise).
	Failures *sweep.FailureReport
}

// HistBin is one histogram bucket.
type HistBin struct {
	Lo, Hi float64
	Count  int
}

// PushoutOptions configures the distribution sweep. Sweep control —
// workers, the Monte-Carlo seed, progress, cancellation and telemetry —
// lives in the embedded SweepOptions.
type PushoutOptions struct {
	Cases int
	Range float64
	// MonteCarlo samples aggressor alignments uniformly at random (with
	// SweepOptions.Seed) instead of the deterministic grid — useful to
	// check that the grid's stride decorrelation does not bias the
	// statistics. Alignment offsets — including the Monte-Carlo draws —
	// are precomputed in case order before dispatch, so the distribution
	// is identical for any worker count.
	MonteCarlo bool

	SweepOptions
}

// RunPushout sweeps aggressor alignments and measures reference output
// arrival shifts (no equivalent-waveform techniques involved).
//
// When opts.Ctx is canceled mid-sweep, RunPushout returns the distribution
// over the cases that completed (still in case order) together with an
// error matching telemetry.ErrCanceled.
func RunPushout(cfg xtalk.Config, opts PushoutOptions) (*PushoutStats, error) {
	if opts.Cases <= 0 {
		opts.Cases = 100
	}
	if opts.Range <= 0 {
		opts.Range = 1e-9
	}
	defer opts.Telemetry.Timer("experiments.pushout.seconds").Start()()
	cfg.Telemetry = opts.Telemetry
	cfg.Inject = opts.Inject
	cfg.NoFastPath = opts.noFastPath

	// The quiet baseline runs once, outside any case; give it a run-level
	// trace so the artifacts show where the reference arrival came from.
	blCtx, blSpan := opts.Tracer.Root(opts.ctx(), "experiments.pushout.baseline", trace.NoCase)
	_, quietOut, err := cfg.RunNoiselessCtx(blCtx, victimStart)
	blSpan.End()
	if err != nil {
		return nil, fmt.Errorf("experiments: pushout baseline: %w", err)
	}
	quietArr, err := core.ArrivalAt(quietOut, cfg.Tech.Vdd)
	if err != nil {
		return nil, err
	}
	// Draw every case's offsets up-front, in case order: the Monte-Carlo
	// stream must not depend on worker scheduling.
	rng := rand.New(rand.NewSource(opts.Seed))
	offsets := make([][]float64, opts.Cases)
	for i := range offsets {
		offs := make([]float64, cfg.Aggressors)
		for k := range offs {
			if opts.MonteCarlo {
				offs[k] = (rng.Float64() - 0.5) * opts.Range
			} else {
				offs[k] = aggressorOffset(i, k, opts.Cases, opts.Range)
			}
		}
		offsets[i] = offs
	}

	// Each worker owns a private reusable testbench (the simulator inside
	// is not safe for concurrent use) with its quiet lead-in up to the
	// victim edge recorded once.
	newWorker := func(int) (*xtalk.Bench, error) {
		bench, err := xtalk.NewBench(cfg)
		if err != nil {
			return nil, err
		}
		if err := bench.RecordPrefix(opts.ctx(), victimStart); err != nil {
			return nil, err
		}
		return bench, nil
	}
	do := func(ctx context.Context, i int, bench *xtalk.Bench) (float64, error) {
		caseSpan := trace.SpanOf(ctx)
		caseSpan.SetAttr(trace.String("config", cfg.Name), trace.Floats("offsets", offsets[i]))
		starts := make([]float64, cfg.Aggressors)
		for k := range starts {
			starts[k] = victimStart + offsets[i][k]
		}
		_, out, err := bench.RunCtx(ctx, victimStart, starts)
		if err != nil {
			return 0, fmt.Errorf("experiments: pushout case %d: %w", i, err)
		}
		arr, err := core.ArrivalAt(out, cfg.Tech.Vdd)
		if err != nil {
			return 0, fmt.Errorf("experiments: pushout case %d: %w", i, err)
		}
		caseSpan.SetAttr(trace.Float("pushout_s", arr-quietArr))
		return arr - quietArr, nil
	}
	pushouts, completed, report, err := runSweep(opts.SweepOptions, opts.Cases, newWorker, do)
	if err != nil && !canceled(err) {
		return nil, err
	}
	// Keep completed cases only (in case order); on a full run this is the
	// whole slice. Quarantined cases (KeepGoing) are simply absent from
	// the distribution and counted in Excluded.
	kept := pushouts[:0]
	for i, p := range pushouts {
		if completed[i] {
			kept = append(kept, p)
		}
	}
	st := &PushoutStats{
		Cases: len(kept), QuietArrival: quietArr, Pushouts: kept,
		Excluded: report.Quarantined(), Failures: report,
	}
	st.summarize()
	return st, err
}

func (st *PushoutStats) summarize() {
	if len(st.Pushouts) == 0 {
		return
	}
	sorted := append([]float64(nil), st.Pushouts...)
	sort.Float64s(sorted)
	st.Min = sorted[0]
	st.Max = sorted[len(sorted)-1]
	sum := 0.0
	for _, p := range sorted {
		sum += p
	}
	st.Mean = sum / float64(len(sorted))
	st.P50 = quantile(sorted, 0.50)
	st.P95 = quantile(sorted, 0.95)

	const bins = 12
	span := st.Max - st.Min
	if span <= 0 {
		st.Hist = []HistBin{{Lo: st.Min, Hi: st.Max, Count: len(sorted)}}
		return
	}
	st.Hist = make([]HistBin, bins)
	for b := range st.Hist {
		st.Hist[b].Lo = st.Min + span*float64(b)/bins
		st.Hist[b].Hi = st.Min + span*float64(b+1)/bins
	}
	for _, p := range sorted {
		b := int(float64(bins) * (p - st.Min) / span)
		if b >= bins {
			b = bins - 1
		}
		st.Hist[b].Count++
	}
}

// quantile returns the q-quantile of a sorted slice with linear
// interpolation between order statistics.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
