package experiments

import (
	"reflect"
	"sync/atomic"
	"testing"

	"noisewave/internal/device"
	"noisewave/internal/xtalk"
)

// TestTable1ParallelEquivalence: a four-worker sweep must be bit-identical
// to a one-worker sweep, which runs the cases in case order — same
// TechniqueStats (MaxAbs/AvgAbs/MeanSigned/Failures/N) and same per-case
// records — on both paper configurations.
// This is the contract that lets cmd/repro default to all cores.
func TestTable1ParallelEquivalence(t *testing.T) {
	for _, mk := range []func(device.Tech) xtalk.Config{xtalk.ConfigurationI, xtalk.ConfigurationII} {
		cfg := mk(device.Default130())
		cfg.Step = 2e-12
		cases := sweepCases(t, 12)

		opts := Table1Options{
			Cases: cases, Range: 1e-9, P: 35,
			SweepOptions: SweepOptions{Workers: 1},
		}
		seq, err := RunTable1(cfg, opts)
		if err != nil {
			t.Fatalf("config %s sequential: %v", cfg.Name, err)
		}
		opts.Workers = 4
		par, err := RunTable1(cfg, opts)
		if err != nil {
			t.Fatalf("config %s parallel: %v", cfg.Name, err)
		}

		if !reflect.DeepEqual(seq.Stats, par.Stats) {
			t.Errorf("config %s: workers=4 stats differ from workers=1:\nseq: %+v\npar: %+v",
				cfg.Name, seq.Stats, par.Stats)
		}
		if !reflect.DeepEqual(seq.Cases, par.Cases) {
			t.Errorf("config %s: per-case records differ between worker counts", cfg.Name)
		}
		for _, s := range seq.Stats {
			t.Logf("config %s %-5s max=%6.2f ps avg=%5.2f ps (bit-identical across worker counts)",
				cfg.Name, s.Name, s.MaxAbs*1e12, s.AvgAbs*1e12)
		}
	}
}

// TestTable1ProgressUnderWorkers: the progress callback must report a
// strictly increasing completed count ending at the case total, regardless
// of worker scheduling.
func TestTable1ProgressUnderWorkers(t *testing.T) {
	cfg := xtalk.ConfigurationI(device.Default130())
	cfg.Step = 2e-12
	cases := sweepCases(t, 8)
	var last int64
	_, err := RunTable1(cfg, Table1Options{
		Cases: cases, Range: 1e-9, P: 35,
		SweepOptions: SweepOptions{
			Workers: 4,
			Progress: func(done, total int) {
				if int64(done) != atomic.AddInt64(&last, 1) {
					t.Errorf("progress done=%d out of order", done)
				}
				if total != cases {
					t.Errorf("progress total=%d, want %d", total, cases)
				}
			},
		},
	})
	if err != nil {
		t.Fatalf("RunTable1: %v", err)
	}
	if int(last) != cases {
		t.Errorf("progress reached %d, want %d", last, cases)
	}
}

// TestPushoutParallelEquivalence: the push-out distribution — including the
// Monte-Carlo variant, whose random draws are precomputed in case order —
// must not depend on the worker count.
func TestPushoutParallelEquivalence(t *testing.T) {
	cfg := xtalk.ConfigurationI(device.Default130())
	cfg.Step = 2e-12
	for _, mc := range []bool{false, true} {
		seq, err := RunPushout(cfg, PushoutOptions{
			Cases: 8, Range: 1e-9, MonteCarlo: mc, Seed: 7,
			SweepOptions: SweepOptions{Workers: 1},
		})
		if err != nil {
			t.Fatalf("sequential (mc=%v): %v", mc, err)
		}
		par, err := RunPushout(cfg, PushoutOptions{
			Cases: 8, Range: 1e-9, MonteCarlo: mc, Seed: 7,
			SweepOptions: SweepOptions{Workers: 3},
		})
		if err != nil {
			t.Fatalf("parallel (mc=%v): %v", mc, err)
		}
		if !reflect.DeepEqual(seq.Pushouts, par.Pushouts) {
			t.Errorf("mc=%v: pushouts differ between worker counts:\nseq %v\npar %v",
				mc, seq.Pushouts, par.Pushouts)
		}
	}
}
