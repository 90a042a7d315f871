#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the Go toolchain writes (build cache, the
# binary, its configuration and telemetry files) stays under .bench_build/.
# Run from the repository root:  bash bench/run.sh --workload train-mem-m1
set -euo pipefail
out=$(pwd)/.bench_build
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local
(cd bench && go build -o "$out/fpisa-bench" .)
exec "$out/fpisa-bench" "$@"
