package main

import (
	"fmt"
	"os"
)

// layerMetric is one per-layer metric of the traced run. Values are per
// unit of work of the workload that measures them: per case on table1,
// per timing pass on sta-noisy, per job on serve. A layer a workload does
// not exercise reports 0.
type layerMetric struct {
	name, unit, better string
	// moves names the end-to-end metrics, by workload, that a change in
	// this layer metric should move; quiet names those it should not.
	moves, quiet string
}

var layers = []layerMetric{
	// xtalk + spice: the golden transient.
	{"xtalk.golden_ms", "ms", "lower", "table1/throughput_per_s", "sta-noisy, serve"},
	{"spice.newton_iterations", "count", "lower", "table1/throughput_per_s", "sta-noisy, serve"},
	{"spice.transients", "count", "lower", "table1/throughput_per_s", "sta-noisy, serve"},
	{"spice.lu_factorizations", "count", "lower", "table1/throughput_per_s", "sta-noisy, serve"},
	{"spice.lu_reuse_ratio", "ratio", "higher", "table1/throughput_per_s", "sta-noisy, serve"},
	{"spice.steps_rejected", "count", "lower", "table1/throughput_per_s", "sta-noisy, serve"},
	{"spice.recovery_rungs", "count", "lower", "table1/throughput_per_s", "sta-noisy, serve"},
	// core: the gate replay.
	{"core.replay_ms", "ms", "lower", "table1/throughput_per_s", "sta-noisy, serve"},
	// eqwave: the Γeff fits.
	{"eqwave.fit_ms", "ms", "lower", "sta-noisy/throughput_per_s", "table1 (about 1%), serve"},
	{"eqwave.fit_ms.P1", "ms", "lower", "sta-noisy/throughput_per_s", "table1 (about 1%), serve"},
	{"eqwave.fit_ms.P2", "ms", "lower", "sta-noisy/throughput_per_s", "table1 (about 1%), serve"},
	{"eqwave.fit_ms.LSF3", "ms", "lower", "sta-noisy/throughput_per_s", "table1 (about 1%), serve"},
	{"eqwave.fit_ms.E4", "ms", "lower", "sta-noisy/throughput_per_s", "table1 (about 1%), serve"},
	{"eqwave.fit_ms.WLS5", "ms", "lower", "sta-noisy/throughput_per_s", "table1 (about 1%), serve"},
	{"eqwave.fit_ms.SGDP", "ms", "lower", "sta-noisy/throughput_per_s", "table1 (about 1%), serve"},
	{"eqwave.sgdp_ms", "ms", "lower", "sta-noisy/throughput_per_s", "table1 (about 1%), serve"},
	// sweep + experiments: scheduling around the cases.
	{"sweep.overhead_ms", "ms", "lower", "table1/throughput_per_s, table1/setup_s", "sta-noisy, serve"},
	{"sweep.case_retries", "count", "lower", "table1/throughput_per_s", "sta-noisy, serve"},
	// sta + netgen: full-chip timing.
	{"sta.clean_pass_s", "s", "lower", "sta-noisy/throughput_per_s, serve via jobs.run_ms", "table1"},
	{"sta.noise_s", "s", "lower", "sta-noisy/throughput_per_s", "table1"},
	{"sta.gates_timed", "count", "higher", "sta-noisy/throughput_per_s", "table1"},
	{"sta.levels", "count", "lower", "sta-noisy/throughput_per_s", "table1"},
	{"sta.noise_conversions", "count", "lower", "sta-noisy/throughput_per_s", "table1"},
	{"setup.netgen_s", "s", "lower", "sta-noisy/setup_s, sta-noisy/peak_rss_mb", "table1"},
	{"setup.annotate_s", "s", "lower", "sta-noisy/setup_s", "table1"},
	// jobs + obs/httpserver: the job service, measured by the sta-noisy
	// traced run. Its end-to-end metrics come from the serve workload,
	// which runs by hand only (see main.go).
	{"http.submit_ms.p50", "ms", "lower", "serve/latency_p50_ms, serve/throughput_per_s", "table1, sta-noisy"},
	{"http.submit_ms.p99", "ms", "lower", "serve/latency_p95_ms", "table1, sta-noisy"},
	{"jobs.queue_ms.p50", "ms", "lower", "serve/latency_p50_ms", "table1, sta-noisy"},
	{"jobs.queue_ms.p99", "ms", "lower", "serve/latency_p95_ms", "table1, sta-noisy"},
	{"jobs.run_ms.p50", "ms", "lower", "serve/latency_p50_ms, serve/throughput_per_s", "table1, sta-noisy"},
	{"jobs.run_ms.p99", "ms", "lower", "serve/latency_p95_ms", "table1, sta-noisy"},
	{"http.result_ms.p50", "ms", "lower", "serve/latency_p50_ms, serve/throughput_per_s", "table1, sta-noisy"},
	{"http.result_ms.p99", "ms", "lower", "serve/latency_p95_ms", "table1, sta-noisy"},
	{"jobs.cache_hit_ratio", "ratio", "higher", "serve/latency_p50_ms, serve/throughput_per_s", "table1, sta-noisy"},
	{"jobs.journal_kb_per_job", "KB", "lower", "serve/throughput_per_s, serve/setup_s", "table1, sta-noisy"},
	{"jobs.compactions", "count", "lower", "serve/latency_p95_ms", "table1, sta-noisy"},
	{"setup.replay_s", "s", "lower", "serve/setup_s", "table1, sta-noisy"},
	// All workloads.
	{"mem.alloc_mb", "MB", "lower", "peak_rss_mb and throughput_per_s of the workload measured", ""},
	{"trace.overhead_ratio", "ratio", "lower", "none: traced over untraced time of the same work", ""},
}

func layerNames() []string {
	out := make([]string, len(layers))
	for i, l := range layers {
		out[i] = l.name
	}
	return out
}

func layerUnit(name string) string {
	for _, l := range layers {
		if l.name == name {
			return l.unit
		}
	}
	return ""
}

// printLayerMap writes which end-to-end metric each layer metric should
// move, so a traced run's output can be read against its predictions.
func printLayerMap() {
	for _, l := range layers {
		fmt.Fprintf(os.Stderr, "perfbench: layer %-24s moves %s; should not move %s\n", l.name, l.moves, orNone(l.quiet))
	}
}

func orNone(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
