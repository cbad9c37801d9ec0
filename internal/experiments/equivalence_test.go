package experiments

// Experiment-level equivalence of the solver fast path: the Table 1 and
// pushout sweeps must produce the same statistics with the fast path on
// (the default) and off (SweepOptions.noFastPath), at any worker count.
//
// The two solver paths agree to a fraction of the Newton tolerance on the
// raw waveforms (see internal/spice's equivalence suite), not bitwise; the
// derived arrival times and delay errors therefore match to femtosecond
// noise, far below the picosecond scale the paper's tables report.
// Within one path, worker counts remain bit-identical (parallel_test.go);
// here the fast sweep runs at workers 1 and 4 against one slow reference.

import (
	"math"
	"testing"

	"noisewave/internal/device"
	"noisewave/internal/xtalk"
)

// statTol is the agreement demanded of sweep statistics across solver
// paths, in seconds. The fast path accepts a converged iterate once its
// certified residual error sits below the deep tolerance (VTol·DeepFactor,
// ~1e-9 V), whereas the slow path's fresh-Jacobian iterations land
// essentially on each step's fixed point; the accumulated difference shows
// up on arrival-derived numbers at the ~1e-14 s scale (observed ≤7e-15 s).
// 1e-13 s keeps an order of margin over that while still sitting an order
// below the ~1 ps differences that would signal a real divergence — and
// well below the paper-table resolution. Within one path, results remain
// bit-identical at any worker count; this tolerance is only about
// fast-vs-slow.
const statTol = 1e-13

func closeStat(a, b float64) bool {
	return math.Abs(a-b) <= statTol
}

// TestTable1FastPathEquivalence: Table 1 statistics with the fast path on,
// at 1 and 4 workers, against the slow-path reference.
func TestTable1FastPathEquivalence(t *testing.T) {
	cfg := xtalk.ConfigurationI(device.Default130())
	cfg.Step = 2e-12
	cases := sweepCases(t, 6)
	opts := Table1Options{
		Cases: cases, Range: 1e-9, P: 15,
		SweepOptions: SweepOptions{Workers: 1, noFastPath: true},
	}
	slow, err := RunTable1(cfg, opts)
	if err != nil {
		t.Fatalf("slow-path reference: %v", err)
	}
	for _, workers := range []int{1, 4} {
		opts.SweepOptions = SweepOptions{Workers: workers}
		fast, err := RunTable1(cfg, opts)
		if err != nil {
			t.Fatalf("fast path @%d workers: %v", workers, err)
		}
		if len(fast.Stats) != len(slow.Stats) {
			t.Fatalf("technique sets diverge: fast %d, slow %d", len(fast.Stats), len(slow.Stats))
		}
		for i, fs := range fast.Stats {
			ss := slow.Stats[i]
			if fs.Name != ss.Name || fs.Failures != ss.Failures || fs.N != ss.N {
				t.Errorf("@%d workers, technique %d: identity diverges: fast %+v, slow %+v",
					workers, i, fs, ss)
				continue
			}
			if !closeStat(fs.MaxAbs, ss.MaxAbs) || !closeStat(fs.AvgAbs, ss.AvgAbs) ||
				!closeStat(fs.MeanSigned, ss.MeanSigned) {
				t.Errorf("@%d workers, %s: stats diverge beyond %g s:\n fast %+v\n slow %+v",
					workers, fs.Name, statTol, fs, ss)
			}
		}
		if fast.Excluded != slow.Excluded {
			t.Errorf("@%d workers: excluded counts diverge: fast %d, slow %d",
				workers, fast.Excluded, slow.Excluded)
		}
		for i, fc := range fast.Cases {
			sc := slow.Cases[i]
			if fc.Health != sc.Health || !closeStat(fc.TrueArrival, sc.TrueArrival) ||
				!closeStat(fc.TrueDelay, sc.TrueDelay) {
				t.Errorf("@%d workers, case %d: record diverges:\n fast %+v\n slow %+v",
					workers, i, fc, sc)
			}
		}
	}
}

// TestPushoutFastPathEquivalence: the delay-noise distribution through
// both solver paths.
func TestPushoutFastPathEquivalence(t *testing.T) {
	cfg := xtalk.ConfigurationI(device.Default130())
	cfg.Step = 2e-12
	cases := sweepCases(t, 6)
	opts := PushoutOptions{
		Cases: cases, Range: 1e-9,
		SweepOptions: SweepOptions{Workers: 1, noFastPath: true},
	}
	slow, err := RunPushout(cfg, opts)
	if err != nil {
		t.Fatalf("slow-path reference: %v", err)
	}
	for _, workers := range []int{1, 4} {
		opts.SweepOptions = SweepOptions{Workers: workers}
		fast, err := RunPushout(cfg, opts)
		if err != nil {
			t.Fatalf("fast path @%d workers: %v", workers, err)
		}
		if fast.Cases != slow.Cases || fast.Excluded != slow.Excluded {
			t.Fatalf("case accounting diverges: fast %d/%d, slow %d/%d",
				fast.Cases, fast.Excluded, slow.Cases, slow.Excluded)
		}
		if !closeStat(fast.QuietArrival, slow.QuietArrival) {
			t.Errorf("@%d workers: quiet arrival diverges: fast %.18g, slow %.18g",
				workers, fast.QuietArrival, slow.QuietArrival)
		}
		for _, p := range []struct {
			name       string
			fast, slow float64
		}{
			{"mean", fast.Mean, slow.Mean},
			{"min", fast.Min, slow.Min},
			{"max", fast.Max, slow.Max},
			{"p50", fast.P50, slow.P50},
			{"p95", fast.P95, slow.P95},
		} {
			if !closeStat(p.fast, p.slow) {
				t.Errorf("@%d workers: %s diverges beyond %g s: fast %.18g, slow %.18g",
					workers, p.name, statTol, p.fast, p.slow)
			}
		}
		if len(fast.Pushouts) != len(slow.Pushouts) {
			t.Fatalf("@%d workers: pushout counts diverge: %d vs %d",
				workers, len(fast.Pushouts), len(slow.Pushouts))
		}
		for i := range slow.Pushouts {
			if !closeStat(fast.Pushouts[i], slow.Pushouts[i]) {
				t.Errorf("@%d workers: case %d pushout diverges: fast %.18g, slow %.18g",
					workers, i, fast.Pushouts[i], slow.Pushouts[i])
			}
		}
	}
}
