// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per process and prints, as the last line of standard output,
// one JSON object with the run's correctness verdict and metrics:
//
//	bash perfbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//   - table1: the paper's Table 1 as published — configurations I and II,
//     200 alignment cases each, P = 35, paper step — through
//     experiments.RunTable1. Unit: cases.
//   - sta-noisy: repeated full-chip timing passes (sta.Timer.RunCtx) on
//     the seeded 10⁵-gate netgen mesh with Elmore wires and SGDP noise
//     annotations on about 1% of nets. Unit: gates.
//   - serve: the durable job service (jobs.Open) behind httpserver.Server
//     on loopback, driven by a closed loop of callers submitting small
//     STA jobs, a fixed quarter of them repeats. Unit: jobs. It is not in
//     BENCHMARK.json: every job fsyncs the journal, and on a shared disk
//     its figures moved by up to half from one run to the next. The
//     sta-noisy traced run drives the same service for the jobs and
//     httpserver layer metrics.
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 a
// separate traced run times calls into each layer's public functions and
// reports the per-layer metrics (layers.go lists them with the end-to-end
// metric each should move). Parallelism is nproc workers or callers;
// execution knobs stay at library defaults.
//
// Inputs are seeded: --seed drives the serve schedule, --mesh-seed and
// --noise-seed the sta-noisy design. Runs on the default mesh and noise
// seeds also compare results with fixed expected values; every run checks
// the invariants (worker bit-identity, cache-hit count, zero failures).
// Work counts that carry no timing noise are recorded under .bench_build
// and compared with earlier runs of the same source tree.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Default input seeds; the fixed expected values hold for these only.
const (
	defaultMeshSeed  = 1
	defaultNoiseSeed = 1
)

// outDir holds everything a run writes: traces, recorded work counts and
// the serve workload's data directories. Relative to the checkout root.
const outDir = ".bench_build/perfbench"

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	meshSeed  int64
	noiseSeed int64
	workers   int
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run summary printed as the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run collects one workload run's operation counts, metrics, failed
// correctness checks and noise-free work counts.
type run struct {
	opts      options
	attempted int64
	failed    int64
	metrics   map[string]metric
	failures  []string
	// counts are the noise-free work counts, recorded per countInputs:
	// the seeds, if any, they depend on. Two runs of the same code must
	// agree on each exactly, or within slack where a count has a known,
	// bounded jitter.
	counts      map[string]int64
	slack       map[string]int64
	countInputs string
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check records a failed correctness check when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*run) error{
	"table1":    runTable1,
	"sta-noisy": runSTANoisy,
	"serve":     runServe,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "table1 | sta-noisy | serve | all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (drives the serve schedule)")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Int64Var(&o.meshSeed, "mesh-seed", defaultMeshSeed, "sta-noisy mesh seed")
	flag.Int64Var(&o.noiseSeed, "noise-seed", defaultNoiseSeed, "sta-noisy noise-site seed")
	flag.Parse()
	o.trace = trace == 1
	o.workers = runtime.NumCPU()
	if o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if o.workload == "all" {
		os.Exit(runAll(o))
	}
	fn, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &run{opts: o, metrics: map[string]metric{}, counts: map[string]int64{}, slack: map[string]int64{}}
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if err := r.compareCounts(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(r.print())
}

// print writes the metrics, the failed checks and the JSON summary, and
// returns the exit code: non-zero when any correctness check failed.
func (r *run) print() int {
	if !r.opts.trace {
		r.set("peak_rss_mb", peakRSSMB(), "MB")
		r.set("success_ratio", float64(r.attempted-r.failed)/float64(r.attempted), "ratio")
		r.check(r.failed == 0, "%d of %d operations failed", r.failed, r.attempted)
	}
	want := endToEnd
	if r.opts.trace {
		want = layerNames()
	}
	out := report{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metric, len(want))}
	for _, name := range want {
		m, ok := r.metrics[name]
		if !ok {
			// A layer this workload does not exercise did no work.
			m = metric{Unit: layerUnit(name)}
		}
		out.Metrics[name] = m
		fmt.Printf("%-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", f)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// endToEnd lists the end-to-end metrics every untraced run reports.
var endToEnd = []string{
	"throughput_per_s", "setup_s", "latency_p50_ms", "latency_p95_ms",
	"peak_rss_mb", "success_ratio",
}

// runAll runs every workload, each in its own process, and exits non-zero
// if any of them failed.
func runAll(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	code := 0
	for _, name := range []string{"table1", "sta-noisy", "serve"} {
		fmt.Printf("== %s\n", name)
		cmd := exec.Command(self, "--workload", name,
			"--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"--trace", trace,
			"--mesh-seed", strconv.FormatInt(o.meshSeed, 10),
			"--noise-seed", strconv.FormatInt(o.noiseSeed, 10))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
