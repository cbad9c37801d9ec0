package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func baseBench() Benchmark {
	return Benchmark{
		Workload: "table1-small",
		Runs: []RunResult{
			{Workers: 1, WallSeconds: 10.0, Cases: 8},
			{Workers: 4, WallSeconds: 3.0, Cases: 8},
		},
	}
}

func TestCompareNoRegression(t *testing.T) {
	old := baseBench()
	cur := baseBench()
	cur.Runs[0].WallSeconds = 11.0 // +10%, inside the 20% budget
	if regs := compareBenchmarks(old, cur, 0.20, 0.30); len(regs) != 0 {
		t.Errorf("unexpected regressions: %v", regs)
	}
}

// TestCompareCatchesInjectedRegression is the acceptance check: an
// injected >= 20% wall-time regression must fail the gate.
func TestCompareCatchesInjectedRegression(t *testing.T) {
	old := baseBench()
	cur := baseBench()
	cur.Runs[1].WallSeconds = old.Runs[1].WallSeconds * 1.25 // +25%
	regs := compareBenchmarks(old, cur, 0.20, 0.30)
	if len(regs) != 1 {
		t.Fatalf("regressions = %v, want exactly one", regs)
	}
	if !strings.Contains(regs[0], "@4 workers") {
		t.Errorf("regression line does not name the run: %q", regs[0])
	}
}

func TestCompareWorkloadMismatch(t *testing.T) {
	old := baseBench()
	cur := baseBench()
	cur.Workload = "pushout"
	if regs := compareBenchmarks(old, cur, 0.20, 0.30); len(regs) != 1 {
		t.Errorf("workload mismatch must be a gate failure, got %v", regs)
	}
}

func TestCompareIgnoresUnmatchedWorkerCounts(t *testing.T) {
	old := baseBench()
	old.Runs = old.Runs[:1] // baseline only has the 1-worker run
	cur := baseBench()
	cur.Runs[1].WallSeconds = 100 // 4-worker run has no baseline: ignored
	if regs := compareBenchmarks(old, cur, 0.20, 0.30); len(regs) != 0 {
		t.Errorf("unmatched worker counts must not gate: %v", regs)
	}
}

// An allocation-volume blowup fails the gate even when wall time holds,
// and allocThreshold = 0 disables the alloc gate entirely.
func TestCompareGatesAllocBytes(t *testing.T) {
	old := baseBench()
	old.Runs[0].AllocBytes = 1 << 20
	cur := baseBench()
	cur.Runs[0].AllocBytes = 2 << 20 // +100% alloc, wall time flat
	regs := compareBenchmarks(old, cur, 0.20, 0.30)
	if len(regs) != 1 {
		t.Fatalf("regressions = %v, want exactly the alloc regression", regs)
	}
	if !strings.Contains(regs[0], "alloc") {
		t.Errorf("regression line does not mention allocations: %q", regs[0])
	}
	if regs := compareBenchmarks(old, cur, 0.20, 0); len(regs) != 0 {
		t.Errorf("allocThreshold 0 must disable the alloc gate: %v", regs)
	}
}

func TestBenchmarkRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	want := baseBench()
	if err := writeBenchmark(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := loadBenchmark(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != want.Workload || len(got.Runs) != len(want.Runs) ||
		got.Runs[1] != want.Runs[1] {
		t.Errorf("round trip: got %+v want %+v", got, want)
	}
}

func TestFindWorkload(t *testing.T) {
	for _, name := range []string{"table1-small", "table1-full", "pushout", "spice-micro"} {
		if _, err := findWorkload(name); err != nil {
			t.Errorf("findWorkload(%q): %v", name, err)
		}
	}
	if _, err := findWorkload("nope"); err == nil {
		t.Error("findWorkload must reject unknown names")
	}
}
