package experiments

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"noisewave/internal/device"
	"noisewave/internal/telemetry"
	"noisewave/internal/xtalk"
)

// ranking returns the technique names sorted by average absolute error,
// most accurate first.
func ranking(r *Table1Result) []string {
	stats := append([]TechniqueStats(nil), r.Stats...)
	sort.Slice(stats, func(a, b int) bool { return stats[a].AvgAbs < stats[b].AvgAbs })
	names := make([]string, len(stats))
	for i, s := range stats {
		names[i] = s.Name
	}
	return names
}

// sweepCases returns the number of alignment cases used by the sweep tests:
// small by default to keep go test fast, overridable for full-fidelity runs
// via NOISEWAVE_CASES.
func sweepCases(t *testing.T, def int) int {
	if s := os.Getenv("NOISEWAVE_CASES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad NOISEWAVE_CASES=%q: %v", s, err)
		}
		return n
	}
	if testing.Short() {
		return def / 2
	}
	return def
}

// TestTable1ConfigurationI reproduces the Configuration I half of Table 1
// at reduced case count and checks the paper's qualitative claims:
//
//   - every technique's average error is finite and below 150 ps,
//   - the sensitivity-based techniques (WLS5, SGDP) rank above the
//     point/fit-based ones on average error,
//   - SGDP's average error is within 25% of WLS5's or better (the paper
//     reports SGDP strictly better; at reduced case counts we allow noise).
func TestTable1ConfigurationI(t *testing.T) {
	cfg := xtalk.ConfigurationI(device.Default130())
	cfg.Step = 2e-12
	res, err := RunTable1(cfg, Table1Options{Cases: sweepCases(t, 30), Range: 1e-9, P: 35})
	if err != nil {
		t.Fatalf("RunTable1: %v", err)
	}
	checkTable1(t, res, 150e-12)
	// Configuration I additionally reproduces the paper's full ranking:
	// SGDP best, WLS5 second, the conventional techniques behind.
	rank := ranking(res)
	if rank[0] != "SGDP" || rank[1] != "WLS5" {
		t.Errorf("ranking %v, want SGDP then WLS5 leading", rank)
	}
}

// TestTable1ConfigurationII is the two-aggressor counterpart. WLS5 is
// exempt from the magnitude bound here: with two aggressors the victim
// edge can be pushed (partly) outside the noiseless critical region, where
// WLS5's window-limited fit degrades arbitrarily — the exact failure mode
// §2.4 of the paper describes ("the higher the number of aggressors is,
// the higher is the probability that WLS5 underestimates the arrival time
// and/or slew ... by a large amount"). Our sweep includes harsher
// coincident-aggressor cases than the paper's, so the magnitude is larger;
// see EXPERIMENTS.md.
func TestTable1ConfigurationII(t *testing.T) {
	cfg := xtalk.ConfigurationII(device.Default130())
	cfg.Step = 2e-12
	res, err := RunTable1(cfg, Table1Options{Cases: sweepCases(t, 30), Range: 1e-9, P: 35})
	if err != nil {
		t.Fatalf("RunTable1: %v", err)
	}
	checkTable1(t, res, math.Inf(1))
	// The paper's headline claim for Configuration II: SGDP is the most
	// accurate technique, and it degrades gracefully where WLS5 does not.
	if rank := ranking(res); rank[0] != "SGDP" {
		t.Errorf("ranking %v, want SGDP first", rank)
	}
	wls, _ := res.StatsFor("WLS5")
	sgdp, _ := res.StatsFor("SGDP")
	if sgdp.MaxAbs >= wls.MaxAbs {
		t.Errorf("SGDP max %.2f ps should be below WLS5 max %.2f ps",
			sgdp.MaxAbs*1e12, wls.MaxAbs*1e12)
	}
}

// TestTable1SmallPinned pins cmd/bench's table1-small workload (Cfg I, 8
// cases, P=15, 2 ps step) to 1 fs: every technique's max and avg error, at
// 1 and 2 workers. The values are amd64 results; a solver or fit change
// that moves any of them by more than 1 fs fails here. On amd64 the
// solver's work is pinned exactly too: Newton iterations, transients and
// LU factorizations. Each worker records two quiet prefixes, so the counts
// differ by worker count; a change that adds solver work fails here even
// when every number stays put.
func TestTable1SmallPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("pinned Table 1 sweep skipped under -short")
	}
	want := map[string][2]float64{ // technique -> {max, avg} in seconds
		"P1":   {5.9830481587419212e-12, 4.2670836977599644e-12},
		"P2":   {3.1889988575057356e-11, 1.4091056350670505e-11},
		"LSF3": {6.7816490270850735e-11, 3.0308805440527377e-11},
		"E4":   {3.2349031653636427e-11, 2.0131477300444592e-11},
		"WLS5": {2.5013234279955135e-12, 1.4403520295201696e-12},
		"SGDP": {8.2034744830342483e-12, 2.4377431089728799e-12},
	}
	// Work counts per worker count: Newton iterations, transients, LU
	// factorizations (amd64).
	wantWork := map[int][3]int64{
		1: {89480, 59, 2210},
		2: {89800, 61, 2230},
	}
	cfg := xtalk.ConfigurationI(device.Default130())
	cfg.Step = 2e-12
	for _, workers := range []int{1, 2} {
		reg := telemetry.New()
		res, err := RunTable1(cfg, Table1Options{Cases: 8, Range: 1e-9, P: 15,
			SweepOptions: SweepOptions{Workers: workers, Telemetry: reg}})
		if err != nil {
			t.Fatalf("%d workers: RunTable1: %v", workers, err)
		}
		if len(res.Stats) != len(want) {
			t.Fatalf("%d workers: %d techniques scored, want %d", workers, len(res.Stats), len(want))
		}
		for _, s := range res.Stats {
			w, ok := want[s.Name]
			if !ok {
				t.Errorf("unexpected technique %s", s.Name)
				continue
			}
			if s.N != 8 {
				t.Errorf("%d workers: %s scored %d cases, want 8", workers, s.Name, s.N)
			}
			if math.Abs(s.MaxAbs-w[0]) > 1e-15 || math.Abs(s.AvgAbs-w[1]) > 1e-15 {
				t.Errorf("%d workers: %s max %.17g avg %.17g, want %.17g / %.17g (±1 fs)",
					workers, s.Name, s.MaxAbs, s.AvgAbs, w[0], w[1])
			}
		}
		if runtime.GOARCH != "amd64" {
			t.Logf("work counts are pinned for amd64; not checked on %s", runtime.GOARCH)
			continue
		}
		c := reg.Snapshot().Counters
		got := [3]int64{c["spice.newton_iterations"], c["spice.transients"], c["spice.fastpath.refactors"]}
		if got != wantWork[workers] {
			t.Errorf("%d workers: Newton iterations, transients, LU factorizations = %v, want %v",
				workers, got, wantWork[workers])
		}
	}
}

// checkTable1 validates the invariants every configuration must satisfy;
// wlsBound is the avg-error plausibility bound applied to WLS5 (relaxed in
// Configuration II, see above).
func checkTable1(t *testing.T, res *Table1Result, wlsBound float64) {
	t.Helper()
	stats := map[string]TechniqueStats{}
	for _, s := range res.Stats {
		t.Logf("%-5s max=%7.2f ps avg=%6.2f ps bias=%+7.2f ps fail=%d",
			s.Name, s.MaxAbs*1e12, s.AvgAbs*1e12, s.MeanSigned*1e12, s.Failures)
		stats[s.Name] = s
		if s.Failures > 0 {
			t.Errorf("%s failed on %d cases", s.Name, s.Failures)
		}
		if s.N == 0 {
			t.Fatalf("%s scored no cases", s.Name)
		}
		bound := 150e-12
		if s.Name == "WLS5" {
			bound = wlsBound
		}
		if math.IsNaN(s.AvgAbs) || s.AvgAbs > bound {
			t.Errorf("%s avg error %.2f ps out of range", s.Name, s.AvgAbs*1e12)
		}
	}
	t.Logf("ranking by avg error: %v", ranking(res))

	sgdp := stats["SGDP"]
	for _, other := range []string{"P1", "P2", "LSF3", "E4", "WLS5"} {
		if sgdp.AvgAbs > stats[other].AvgAbs {
			t.Errorf("SGDP avg %.2f ps should beat %s avg %.2f ps",
				sgdp.AvgAbs*1e12, other, stats[other].AvgAbs*1e12)
		}
	}
}
