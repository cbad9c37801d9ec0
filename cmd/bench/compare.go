package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// RunResult is one measured (workload, workers) execution. Everything a
// regression hunt needs rides along with the wall time: throughput, the
// Newton-iteration count (the solver's real unit of work — a wall-time
// regression with flat iterations is scheduling, one with rising
// iterations is numerics), the LU reuse rate and the allocation volume.
type RunResult struct {
	Workers          int     `json:"workers"`
	WallSeconds      float64 `json:"wall_seconds"`
	Cases            int64   `json:"cases"`
	CasesPerSec      float64 `json:"cases_per_sec"`
	NewtonIterations int64   `json:"newton_iterations"`
	// LUReuseRate is the fraction of fast-path Newton solves served by a
	// reused LU factorization: lu_reuses / (lu_reuses + refactors). A drop
	// means the solver is refactoring more.
	LUReuseRate float64 `json:"lu_reuse_rate"`
	AllocBytes  uint64  `json:"alloc_bytes"`
}

// Benchmark is the BENCH_<workload>.json document: the pinned workload
// plus one RunResult per worker count (1 and N by default).
type Benchmark struct {
	Workload string      `json:"workload"`
	About    string      `json:"about"`
	Runs     []RunResult `json:"runs"`
}

// loadBenchmark reads a Benchmark JSON file.
func loadBenchmark(path string) (Benchmark, error) {
	var b Benchmark
	raw, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("bench: %s: %w", path, err)
	}
	return b, nil
}

// compareBenchmarks gates cur against old: every (workers) run present in
// both must not regress wall time by more than threshold (0.20 = 20%
// slower fails) nor allocation volume by more than allocThreshold. It
// returns human-readable regression lines; an empty slice means the gate
// passes. Runs only present on one side are ignored — adding a worker count
// must not fail old baselines.
func compareBenchmarks(old, cur Benchmark, threshold, allocThreshold float64) []string {
	if old.Workload != cur.Workload {
		return []string{fmt.Sprintf("workload mismatch: baseline %q vs current %q", old.Workload, cur.Workload)}
	}
	byWorkers := make(map[int]RunResult, len(old.Runs))
	for _, r := range old.Runs {
		byWorkers[r.Workers] = r
	}
	var regressions []string
	for _, cr := range cur.Runs {
		or, ok := byWorkers[cr.Workers]
		if !ok || or.WallSeconds <= 0 {
			continue
		}
		ratio := cr.WallSeconds / or.WallSeconds
		if ratio > 1+threshold {
			regressions = append(regressions, fmt.Sprintf(
				"%s @%d workers: wall %.3fs -> %.3fs (%.0f%% > %.0f%% budget)",
				cur.Workload, cr.Workers, or.WallSeconds, cr.WallSeconds,
				(ratio-1)*100, threshold*100))
		}
		// Allocation volume gates with its own (looser) budget: it is
		// noise-free per workload, so growth means a real new allocation in
		// the hot loop, not scheduler jitter.
		if or.AllocBytes > 0 && allocThreshold > 0 {
			aratio := float64(cr.AllocBytes) / float64(or.AllocBytes)
			if aratio > 1+allocThreshold {
				regressions = append(regressions, fmt.Sprintf(
					"%s @%d workers: alloc %.1f MB -> %.1f MB (%.0f%% > %.0f%% budget)",
					cur.Workload, cr.Workers,
					float64(or.AllocBytes)/(1<<20), float64(cr.AllocBytes)/(1<<20),
					(aratio-1)*100, allocThreshold*100))
			}
		}
	}
	return regressions
}
