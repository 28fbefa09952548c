#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file the
# build and the run write inside the checkout: the Go build cache, the
# binary, Go's temp files and the go command's own config and telemetry
# counters under .bench_build/, stores, traces and result files under
# bench/out/. Arguments go to the benchmark unchanged.
set -euo pipefail
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOPATH=$build/gopath GOTMPDIR=$build/tmp
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local XDG_CONFIG_HOME=$build/config
(cd bench && go build -o "$build/crispbench" .)
exec "$build/crispbench" "$@"
