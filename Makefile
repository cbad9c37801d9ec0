# Development entry points; CI (.github/workflows/ci.yml) runs the same
# targets.

GO ?= go

.PHONY: all fmt vet build test race bench bench-micro check staticcheck metrics-demo logs-demo chaos fuzz serve-smoke serve-crash loadtest

all: check

# Every tracked Go file, perfbench/ included, must be gofmt-clean. gofmt -l
# only lists the files that differ; it edits nothing.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# perfbench/ is its own module, so ./... skips it: vet and build it
# explicitly, or a deleted field it reads would surface only in the
# benchmark run.
vet:
	$(GO) vet ./...
	$(GO) vet -C perfbench ./...

build:
	$(GO) build ./...
	$(GO) build -C perfbench -o /dev/null .

test:
	$(GO) test ./...

# The metrics registry, the sweep engine, the experiment drivers, the span
# tracer, the observability layer and the levelized parallel timer are the
# concurrent code; they get a dedicated race-detector pass.
race:
	$(GO) test -race ./internal/telemetry/... ./internal/sweep/... ./internal/experiments/... \
		./internal/trace/... ./internal/obs/... ./internal/jobs/... ./internal/sta/...

# Benchmark trajectory harness: run the pinned CI workload and write
# BENCH_table1-small.json. Gate a change against a saved baseline with
# `go run ./cmd/bench -workload table1-small -compare old.json`
# (see EXPERIMENTS.md "Benchmark trajectory").
bench:
	$(GO) run ./cmd/bench -workload table1-small

# Go micro/scaling benchmarks: the parallel sweep engine, one Γeff replay
# through the receiver chain and one golden transient of the Figure 1
# testbench (the two transients of a Table 1 case, both from scratch), one
# case's fit-and-replay step (six fits, replays shared by bit-identical
# Γeff), the crossing scan on the arrival-measurement hot path, and the
# 10⁴-gate rows of the full-chip timer (clean and noisy, so noise set-up
# that stops scaling linearly shows as a gap between the two, plus the
# graph compile alone at 1 and 4 workers).
bench-micro:
	$(GO) test -run XXX -bench BenchmarkTable1ParallelSweep -benchtime 3x .
	$(GO) test -run XXX -bench 'BenchmarkGateEvaluation|BenchmarkTestbenchTransient|BenchmarkCompareTechniques' -benchtime 20x .
	$(GO) test -run XXX -bench BenchmarkCrossings ./internal/wave/
	$(GO) test -run XXX -bench 'BenchmarkAssemble|BenchmarkNewtonIteration|BenchmarkTransientStep' ./internal/spice/
	$(GO) test -run XXX -bench 'BenchmarkMesh/.*/gates=10000$$' ./internal/sta/
	$(GO) test -run XXX -bench BenchmarkRegistryObserve ./internal/telemetry/

# Fault-injection suite under the race detector: every chaos test drives the
# recovery ladder, the quarantine path or the degraded fallback through the
# deterministic injector (see EXPERIMENTS.md "Failure handling & chaos
# testing").
chaos:
	$(GO) test -race -run 'Chaos' ./internal/spice/... ./internal/sweep/... ./internal/xtalk/... ./internal/experiments/...

# Short fuzz pass over every fuzz target: the waveform constructor and
# crossing scan, the Liberty, netlist, Verilog and SPEF readers, journal
# replay and the job config's canonical form. CI runs the same budget,
# about two minutes in all with builds; longer local runs just raise
# -fuzztime.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzWaveNew$$' -fuzztime 15s ./internal/wave/
	$(GO) test -run '^$$' -fuzz '^FuzzCrossings$$' -fuzztime 15s ./internal/wave/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/liberty/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/netlist/
	$(GO) test -run '^$$' -fuzz '^FuzzParseQuantity$$' -fuzztime 10s ./internal/netlist/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/verilog/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/spef/
	$(GO) test -run '^$$' -fuzz '^FuzzReadJournal$$' -fuzztime 10s ./internal/jobs/
	$(GO) test -run '^$$' -fuzz '^FuzzConfigNormalized$$' -fuzztime 10s ./internal/jobs/

# Lint with staticcheck when available (CI installs it; local runs skip
# gracefully rather than demanding an install).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# Small instrumented run: Table 1 on six cases with the telemetry snapshot
# dumped at exit (see EXPERIMENTS.md "Observability").
metrics-demo:
	$(GO) run ./cmd/repro -experiment table1 -cases 6 -config I -q -metrics text

# Small structured-logging run: the same six cases under chaos so the
# quarantine and solver-recovery log events actually fire, streamed as
# human-readable lines (see EXPERIMENTS.md "Request-scoped observability").
logs-demo:
	$(GO) run ./cmd/repro -experiment table1 -cases 6 -config I -q \
		-keep-going -chaos 1 -log debug -log-format human

# Timing-as-a-service self-test: boot cmd/serve on a loopback port, drive
# the HTTP job API end to end (submit, poll, result), compare every number
# against the direct in-process run, and verify identical resubmissions are
# served from the content-addressed cache with zero new solves (see
# EXPERIMENTS.md "Timing as a service").
serve-smoke:
	$(GO) run ./cmd/serve -smoke

# Crash-recovery acceptance run, under the race detector: build the real
# binary, kill -9 it mid-batch, verify the restart replays the write-ahead
# journal and completes the batch, verify durable cache hits run zero new
# solves, then SIGTERM-drain and check the clean-shutdown path (see
# EXPERIMENTS.md "Durability & crash recovery").
serve-crash:
	$(GO) test -race -run TestServeCrashRecovery -count=1 ./cmd/serve/

# Sustained load test: 8 concurrent submitters drive distinct jobs through
# the full HTTP surface; the report gives p50/p95/p99 submit-to-done latency
# plus the server-side jobs.run_seconds distribution.
loadtest:
	$(GO) run ./cmd/serve -load -load-out LOAD_report.json

check: fmt vet build test race chaos staticcheck serve-smoke serve-crash
