#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload table1|sta-noisy|serve|all \
#       --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, the serve workload's data directories, traces
# and recorded work counts) stays under .bench_build/ in the current
# directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

go build -C perfbench -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
