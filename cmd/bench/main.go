// Command bench is the benchmark trajectory harness: it runs pinned sweep
// workloads, records wall time, throughput, Newton iterations, LU reuse
// rate and allocations into BENCH_<workload>.json, and gates the current
// numbers against a saved baseline.
//
// Usage:
//
//	bench -workload table1-small             run + write BENCH_table1-small.json
//	bench -workload table1-small -workers 8  pin the parallel worker count
//	bench -list                              print the pinned workloads
//	bench -workload X -compare old.json      also gate against a baseline;
//	                                         exits 1 when any worker count's
//	                                         wall time regressed > -threshold
//
// Each workload runs twice — sequentially (1 worker) and at -workers (0 =
// all cores) — so the JSON tracks both the solver's raw speed and the
// sweep engine's scaling. Workload parameters are pinned in code, never
// flags: two BENCH files always measure the same work.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"noisewave/internal/telemetry"
)

func main() {
	var (
		name      = flag.String("workload", "table1-small", "pinned workload to run (see -list)")
		workers   = flag.Int("workers", 0, "parallel worker count (0 = all cores); 1-worker run always included")
		outDir    = flag.String("out", ".", "directory for BENCH_<workload>.json")
		compare   = flag.String("compare", "", "baseline BENCH json to gate against")
		threshold = flag.Float64("threshold", 0.20, "wall-time regression budget for -compare (0.20 = +20%)")
		allocTh   = flag.Float64("alloc-threshold", 0.30, "alloc_bytes regression budget for -compare (0 = don't gate allocations)")
		list      = flag.Bool("list", false, "print the pinned workloads and exit")
	)
	flag.Parse()

	if *list {
		for _, w := range workloads() {
			fmt.Printf("%-14s %s\n", w.name, w.about)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	parallel := *workers
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	counts := []int{1}
	if parallel > 1 {
		counts = append(counts, parallel)
	}

	bench := Benchmark{Workload: w.name, About: w.about}
	for _, n := range counts {
		r, err := measure(w, n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s @%d workers: %v\n", w.name, n, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench: %s @%d workers: %.3fs wall, %.2f cases/s, %d NR iters, %.0f%% LU reuse, %.1f MB alloc\n",
			w.name, n, r.WallSeconds, r.CasesPerSec, r.NewtonIterations,
			r.LUReuseRate*100, float64(r.AllocBytes)/(1<<20))
		bench.Runs = append(bench.Runs, r)
	}

	out := filepath.Join(*outDir, "BENCH_"+w.name+".json")
	if err := writeBenchmark(out, bench); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "bench: wrote", out)

	if *compare != "" {
		old, err := loadBenchmark(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if regs := compareBenchmarks(old, bench, *threshold, *allocTh); len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintln(os.Stderr, "bench: REGRESSION:", r)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench: no regression vs %s (budget %.0f%%)\n", *compare, *threshold*100)
	}
}

// measure runs one workload at one worker count with a fresh registry and
// derives the run record from the engine's own counters: completed cases
// and Newton iterations come from telemetry (identical accounting at every
// worker count), the allocation volume from the runtime's total-alloc
// delta.
func measure(w workload, workers int) (RunResult, error) {
	reg := telemetry.New()
	if w.setup != nil {
		if err := w.setup(context.Background()); err != nil {
			return RunResult{}, fmt.Errorf("setup: %w", err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := w.run(context.Background(), reg, workers); err != nil {
		return RunResult{}, err
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)

	snap := reg.Snapshot()
	r := RunResult{
		Workers:          workers,
		WallSeconds:      wall,
		Cases:            snap.Counters["sweep.cases_completed"],
		NewtonIterations: snap.Counters["spice.newton_iterations"],
		AllocBytes:       after.TotalAlloc - before.TotalAlloc,
	}
	if r.Cases == 0 {
		// STA workloads have no sweep cases; count timed gates instead, so
		// CasesPerSec reads as gates/s.
		r.Cases = snap.Counters["sta.gates_timed"]
	}
	if r.Cases == 0 {
		// Bare-solver workloads bypass the sweep engine; count their
		// transients.
		r.Cases = snap.Counters["spice.transients"]
	}
	if wall > 0 {
		r.CasesPerSec = float64(r.Cases) / wall
	}
	reuses := snap.Counters["spice.fastpath.lu_reuses"]
	refactors := snap.Counters["spice.fastpath.refactors"]
	if reuses+refactors > 0 {
		r.LUReuseRate = float64(reuses) / float64(reuses+refactors)
	}
	return r, nil
}

// writeBenchmark writes the document as indented JSON, creating the
// directory if needed.
func writeBenchmark(path string, b Benchmark) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
